#include "transport/channel.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "util/serialization.h"

namespace setrec {
namespace {

Channel::Message Msg(Party from, std::string label,
                     std::vector<uint8_t> payload) {
  return Channel::Message{from, std::move(payload), std::move(label)};
}

TEST(ChannelTest, CountsBytesAndRounds) {
  Channel ch;
  EXPECT_EQ(ch.rounds(), 0u);
  ch.Send(Party::kAlice, {1, 2, 3}, "m1");
  ch.Send(Party::kBob, {4, 5}, "m2");
  EXPECT_EQ(ch.rounds(), 2u);
  EXPECT_EQ(ch.total_bytes(), 5u);
  EXPECT_EQ(ch.bytes_from(Party::kAlice), 3u);
  EXPECT_EQ(ch.bytes_from(Party::kBob), 2u);
}

TEST(ChannelTest, ReceiveReturnsPayloadAndLabel) {
  Channel ch;
  size_t idx = ch.Send(Party::kAlice, {9, 8}, "hello");
  const Channel::Message& m = ch.Receive(idx);
  EXPECT_EQ(m.from, Party::kAlice);
  EXPECT_EQ(m.payload, (std::vector<uint8_t>{9, 8}));
  EXPECT_EQ(m.label, "hello");
}

TEST(ChannelTest, ResetClearsEverything) {
  Channel ch;
  ch.Send(Party::kAlice, {1}, "");
  ch.Reset();
  EXPECT_EQ(ch.rounds(), 0u);
  EXPECT_EQ(ch.total_bytes(), 0u);
  EXPECT_TRUE(ch.transcript().empty());
}

TEST(ChannelTest, EmptyPayloadCountsAsRound) {
  // The paper counts messages, not bytes.
  Channel ch;
  ch.Send(Party::kBob, {}, "empty");
  EXPECT_EQ(ch.rounds(), 1u);
  EXPECT_EQ(ch.total_bytes(), 0u);
}

TEST(PackTranscriptTest, RoundTripsFullMessages) {
  // Mixed senders and labels: the packed form must preserve attribution.
  Channel sub;
  sub.Send(Party::kAlice, {1, 2, 3}, "a");
  sub.Send(Party::kBob, {}, "");
  sub.Send(Party::kAlice, {7}, "final");
  std::vector<uint8_t> packed = PackTranscript(sub);

  ByteReader reader(packed);
  std::vector<Channel::Message> messages;
  ASSERT_TRUE(UnpackTranscript(&reader, &messages));
  EXPECT_TRUE(reader.empty());
  ASSERT_EQ(messages.size(), 3u);
  EXPECT_EQ(messages[0].from, Party::kAlice);
  EXPECT_EQ(messages[0].label, "a");
  EXPECT_EQ(messages[0].payload, (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_EQ(messages[1].from, Party::kBob);
  EXPECT_EQ(messages[1].label, "");
  EXPECT_TRUE(messages[1].payload.empty());
  EXPECT_EQ(messages[2].from, Party::kAlice);
  EXPECT_EQ(messages[2].label, "final");
  EXPECT_EQ(messages[2].payload, (std::vector<uint8_t>{7}));
}

TEST(PackTranscriptTest, SkipAdvancesPastBlock) {
  Channel sub;
  sub.Send(Party::kAlice, {1, 2, 3}, "a");
  sub.Send(Party::kBob, {4}, "b");
  std::vector<uint8_t> packed = PackTranscript(sub);
  packed.push_back(0x5a);  // Trailing section after the transcript.

  ByteReader reader(packed);
  ASSERT_TRUE(SkipPackedTranscript(&reader));
  uint8_t tail = 0;
  ASSERT_TRUE(reader.GetU8(&tail));
  EXPECT_EQ(tail, 0x5a);
  EXPECT_TRUE(reader.empty());
}

TEST(PackTranscriptTest, TruncatedBlockRejected) {
  Channel sub;
  sub.Send(Party::kAlice, std::vector<uint8_t>(40, 9), "label");
  std::vector<uint8_t> packed = PackTranscript(sub);
  for (size_t cut : {packed.size() - 1, packed.size() / 2, size_t{1}}) {
    ByteReader reader(packed.data(), cut);
    std::vector<Channel::Message> messages;
    EXPECT_FALSE(UnpackTranscript(&reader, &messages)) << "cut=" << cut;
    ByteReader skip_reader(packed.data(), cut);
    EXPECT_FALSE(SkipPackedTranscript(&skip_reader)) << "cut=" << cut;
  }
}

TEST(ForwardAsSingleMessageTest, AccountsSubBytesOnce) {
  Channel sub;
  sub.Send(Party::kAlice, std::vector<uint8_t>(100, 1), "big");
  sub.Send(Party::kAlice, std::vector<uint8_t>(50, 2), "small");
  Channel main;
  ForwardAsSingleMessage(sub, Party::kAlice, &main, "bundle");
  EXPECT_EQ(main.rounds(), 1u);
  // Payloads plus per-message framing (count, sender bytes, labels "big"
  // and "small" with their length prefixes, payload length prefixes).
  EXPECT_GE(main.total_bytes(), 150u);
  EXPECT_LE(main.total_bytes(), 175u);
}

TEST(FrameDecoderTest, WriteMessageFrameRoundTripsByteAtATime) {
  std::vector<Channel::Message> sent;
  ByteWriter stream;
  for (int i = 0; i < 5; ++i) {
    sent.push_back(Msg(i % 2 == 0 ? Party::kAlice : Party::kBob,
                       "label" + std::to_string(i),
                       std::vector<uint8_t>(static_cast<size_t>(i * 7),
                                            static_cast<uint8_t>(i))));
    WriteMessageFrame(sent.back(), &stream);
  }

  // Feed the stream one byte at a time: frames must pop exactly when
  // complete and match what was sent, in order.
  FrameDecoder decoder;
  std::vector<Channel::Message> received;
  for (uint8_t byte : stream.bytes()) {
    decoder.Feed(&byte, 1);
    Channel::Message m;
    while (decoder.Next(&m)) received.push_back(std::move(m));
  }
  ASSERT_FALSE(decoder.failed());
  EXPECT_EQ(decoder.buffered(), 0u);
  ASSERT_EQ(received.size(), sent.size());
  for (size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(received[i].from, sent[i].from);
    EXPECT_EQ(received[i].label, sent[i].label);
    EXPECT_EQ(received[i].payload, sent[i].payload);
  }
}

TEST(FrameDecoderTest, FrameStreamIsPackTranscriptCompatible) {
  // A packed transcript is a varint count followed by the same frames a
  // socket stream carries; after skipping the count, FrameDecoder must
  // parse the body, and a frame stream must parse with ReadMessageFrame.
  Channel channel;
  channel.Send(Party::kAlice, {10, 20, 30}, "outer");
  channel.Send(Party::kBob, {40}, "reply");
  std::vector<uint8_t> packed = PackTranscript(channel);

  ByteReader reader(packed);
  uint64_t count = 0;
  ASSERT_TRUE(reader.GetVarint(&count));
  ASSERT_EQ(count, 2u);

  FrameDecoder decoder;
  decoder.Feed(packed.data() + (packed.size() - reader.remaining()),
               reader.remaining());
  Channel::Message m;
  ASSERT_TRUE(decoder.Next(&m));
  EXPECT_EQ(m.label, "outer");
  EXPECT_EQ(m.from, Party::kAlice);
  ASSERT_TRUE(decoder.Next(&m));
  EXPECT_EQ(m.label, "reply");
  EXPECT_FALSE(decoder.Next(&m));
  EXPECT_FALSE(decoder.failed());

  // And the reverse: frames written by WriteMessageFrame parse with
  // ReadMessageFrame (the UnpackTranscript path exercises this too).
  ByteWriter frames;
  WriteMessageFrame(channel.transcript()[0], &frames);
  WriteMessageFrame(channel.transcript()[1], &frames);
  ByteReader frame_reader(frames.bytes());
  Channel::Message a, b;
  ASSERT_TRUE(ReadMessageFrame(&frame_reader, &a));
  ASSERT_TRUE(ReadMessageFrame(&frame_reader, &b));
  EXPECT_EQ(a.payload, (std::vector<uint8_t>{10, 20, 30}));
  EXPECT_EQ(b.payload, (std::vector<uint8_t>{40}));
  EXPECT_EQ(frame_reader.remaining(), 0u);
}

TEST(FrameDecoderTest, MalformedFrameLatchesFailure) {
  FrameDecoder decoder;
  // Sender byte 7 is not a Party.
  std::vector<uint8_t> bad = {7, 0, 0};
  decoder.Feed(bad);
  Channel::Message m;
  EXPECT_FALSE(decoder.Next(&m));
  EXPECT_TRUE(decoder.failed());
  // Further feeding cannot resynchronize.
  std::vector<uint8_t> good;
  {
    ByteWriter w;
    WriteMessageFrame(Msg(Party::kAlice, "x", {1}), &w);
    good = w.Take();
  }
  decoder.Feed(good);
  EXPECT_FALSE(decoder.Next(&m));
  EXPECT_TRUE(decoder.failed());
}

TEST(FrameDecoderTest, OversizeFrameLengthLatchesFailure) {
  // A hostile length prefix above the frame bound must fail fast, not park
  // the decoder in "need more" while the caller buffers forever.
  FrameDecoder decoder(/*max_frame_bytes=*/1024);
  ByteWriter w;
  w.PutU8(0);                // Valid sender.
  w.PutVarint(1ull << 20);   // Label "length" far above the bound.
  decoder.Feed(w.bytes());
  Channel::Message m;
  EXPECT_FALSE(decoder.Next(&m));
  EXPECT_TRUE(decoder.failed());
}

TEST(FrameDecoderTest, IncompleteFrameWaitsForMoreBytes) {
  ByteWriter w;
  WriteMessageFrame(Msg(Party::kBob, "partial", std::vector<uint8_t>(300, 5)),
                    &w);
  const std::vector<uint8_t>& bytes = w.bytes();

  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size() / 2);
  Channel::Message m;
  EXPECT_FALSE(decoder.Next(&m));
  EXPECT_FALSE(decoder.failed());
  decoder.Feed(bytes.data() + bytes.size() / 2, bytes.size() - bytes.size() / 2);
  ASSERT_TRUE(decoder.Next(&m));
  EXPECT_EQ(m.label, "partial");
  EXPECT_EQ(m.payload.size(), 300u);
}

TEST(FrameDecoderAdversarial, TwoChunkSplitAtEverySplitPoint) {
  // A multi-frame stream split into two feeds at EVERY byte position must
  // decode to the identical message sequence — the exact situation a
  // socket read boundary produces (partial varints, half labels, split
  // payloads).
  ByteWriter w;
  std::vector<Channel::Message> sent;
  sent.push_back(Msg(Party::kAlice, "", {}));
  sent.push_back(Msg(Party::kBob, "ack", {1}));
  sent.push_back(
      Msg(Party::kAlice, std::string(130, 'L'),  // 2-byte label varint.
          std::vector<uint8_t>(200, 9)));
  for (const Channel::Message& m : sent) WriteMessageFrame(m, &w);
  const std::vector<uint8_t>& bytes = w.bytes();

  for (size_t split = 0; split <= bytes.size(); ++split) {
    FrameDecoder decoder;
    std::vector<Channel::Message> received;
    Channel::Message m;
    decoder.Feed(bytes.data(), split);
    while (decoder.Next(&m)) received.push_back(std::move(m));
    decoder.Feed(bytes.data() + split, bytes.size() - split);
    while (decoder.Next(&m)) received.push_back(std::move(m));
    ASSERT_FALSE(decoder.failed()) << "split at " << split;
    ASSERT_EQ(received.size(), sent.size()) << "split at " << split;
    for (size_t i = 0; i < sent.size(); ++i) {
      EXPECT_EQ(received[i].from, sent[i].from) << "split at " << split;
      EXPECT_EQ(received[i].label, sent[i].label) << "split at " << split;
      EXPECT_EQ(received[i].payload, sent[i].payload)
          << "split at " << split;
    }
  }
}

TEST(FrameDecoderAdversarial, TruncationAtEveryPrefixNeitherYieldsNorFails) {
  // Every proper prefix of a valid frame is "need more bytes": no message,
  // no failure latch — the stream can always be completed later.
  ByteWriter w;
  WriteMessageFrame(Msg(Party::kBob, "trunc", std::vector<uint8_t>(50, 3)),
                    &w);
  const std::vector<uint8_t>& bytes = w.bytes();
  for (size_t len = 0; len < bytes.size(); ++len) {
    FrameDecoder decoder;
    decoder.Feed(bytes.data(), len);
    Channel::Message m;
    EXPECT_FALSE(decoder.Next(&m)) << "prefix " << len;
    EXPECT_FALSE(decoder.failed()) << "prefix " << len;
    EXPECT_EQ(decoder.buffered(), len);
  }
}

TEST(FrameDecoderAdversarial, PayloadLengthAboveBoundLatches) {
  // The SECOND length prefix (payload) above the bound must latch too —
  // not just the label length.
  FrameDecoder decoder(/*max_frame_bytes=*/1024);
  ByteWriter w;
  w.PutU8(1);          // Valid sender.
  w.PutVarint(2);      // Label length 2.
  w.PutU8('h');
  w.PutU8('i');
  w.PutVarint(1ull << 30);  // Hostile payload length.
  decoder.Feed(w.bytes());
  Channel::Message m;
  EXPECT_FALSE(decoder.Next(&m));
  EXPECT_TRUE(decoder.failed());
}

TEST(FrameDecoderAdversarial, OverlongVarintLengthLatches) {
  // An 11-byte varint encoding (or payload bits past bit 63) can never be
  // a valid length; the decoder must latch instead of waiting forever.
  FrameDecoder decoder;
  std::vector<uint8_t> bad = {0};  // Valid sender byte.
  for (int i = 0; i < 10; ++i) bad.push_back(0x80);
  bad.push_back(0x01);
  decoder.Feed(bad);
  Channel::Message m;
  EXPECT_FALSE(decoder.Next(&m));
  EXPECT_TRUE(decoder.failed());
}

TEST(PartyTest, Names) {
  EXPECT_STREQ(PartyName(Party::kAlice), "Alice");
  EXPECT_STREQ(PartyName(Party::kBob), "Bob");
}

}  // namespace
}  // namespace setrec
