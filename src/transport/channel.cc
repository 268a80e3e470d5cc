#include "transport/channel.h"

#include <utility>

namespace setrec {

size_t Channel::Send(Party from, std::vector<uint8_t> payload,
                     std::string label) {
  total_bytes_ += payload.size();
  if (from == Party::kAlice) {
    bytes_alice_ += payload.size();
  } else {
    bytes_bob_ += payload.size();
  }
  messages_.push_back(Message{from, std::move(payload), std::move(label)});
  return messages_.size() - 1;
}

void Channel::Reset() {
  messages_.clear();
  total_bytes_ = 0;
  bytes_alice_ = 0;
  bytes_bob_ = 0;
}

void WriteMessageFrame(const Channel::Message& message, ByteWriter* writer) {
  writer->PutU8(static_cast<uint8_t>(message.from));
  writer->PutVarint(message.label.size());
  writer->PutBytes(reinterpret_cast<const uint8_t*>(message.label.data()),
                   message.label.size());
  writer->PutLengthPrefixed(message.payload);
}

bool ReadMessageFrame(ByteReader* reader, Channel::Message* out) {
  uint8_t from = 0;
  uint64_t label_len = 0;
  if (!reader->GetU8(&from) || from > 1) return false;
  if (!reader->GetVarint(&label_len) || label_len > reader->remaining()) {
    return false;
  }
  out->from = static_cast<Party>(from);
  out->label.resize(static_cast<size_t>(label_len));
  if (!reader->GetRaw(static_cast<size_t>(label_len),
                      reinterpret_cast<uint8_t*>(out->label.data()))) {
    return false;
  }
  return reader->GetLengthPrefixed(&out->payload);
}

std::vector<uint8_t> PackTranscript(const Channel& sub) {
  ByteWriter writer;
  writer.PutVarint(sub.transcript().size());
  for (const Channel::Message& m : sub.transcript()) {
    WriteMessageFrame(m, &writer);
  }
  return writer.Take();
}

bool UnpackTranscript(ByteReader* reader,
                      std::vector<Channel::Message>* messages) {
  uint64_t count = 0;
  if (!reader->GetVarint(&count)) return false;
  // Each packed message costs at least 3 bytes (sender + two length
  // prefixes); a tighter bound keeps the reserve below the input size
  // instead of letting a hostile count amplify into a huge allocation.
  if (count > reader->remaining() / 3) return false;
  messages->clear();
  messages->reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    Channel::Message m;
    if (!ReadMessageFrame(reader, &m)) return false;
    messages->push_back(std::move(m));
  }
  return true;
}

bool SkipPackedTranscript(ByteReader* reader) {
  uint64_t count = 0;
  if (!reader->GetVarint(&count)) return false;
  if (count > reader->remaining() / 3) return false;
  for (uint64_t i = 0; i < count; ++i) {
    uint8_t from = 0;
    uint64_t len = 0;
    if (!reader->GetU8(&from) || from > 1) return false;
    // Advance past the label and payload without copying them (the payload
    // can be a full serialized IBLT).
    if (!reader->GetVarint(&len) || !reader->Skip(len)) return false;
    if (!reader->GetVarint(&len) || !reader->Skip(len)) return false;
  }
  return true;
}

size_t ForwardAsSingleMessage(const Channel& sub, Party from, Channel* main,
                              std::string label) {
  return main->Send(from, PackTranscript(sub), std::move(label));
}

namespace {

enum class VarintState { kOk, kNeedMore, kMalformed };

/// Incremental varint read with ByteReader::GetVarint's exact acceptance
/// rules (rejects payload bits past bit 63 and 11+-byte encodings), but
/// able to report "ran out of buffered bytes" separately from "malformed".
VarintState ReadVarintPrefix(const uint8_t* data, size_t n, uint64_t* v,
                             size_t* used) {
  uint64_t out = 0;
  size_t i = 0;
  for (int shift = 0; shift < 64; shift += 7, ++i) {
    if (i >= n) return VarintState::kNeedMore;
    uint8_t byte = data[i];
    if (shift == 63 && (byte & 0x7e) != 0) return VarintState::kMalformed;
    out |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *v = out;
      *used = i + 1;
      return VarintState::kOk;
    }
  }
  return VarintState::kMalformed;  // Overlong encoding (11+ bytes).
}

}  // namespace

void FrameDecoder::Feed(const uint8_t* data, size_t n) {
  if (failed_) return;
  // Compact lazily: drop consumed prefix once it dominates the buffer so
  // a long-lived stream does not grow without bound.
  if (consumed_ > 4096 && consumed_ * 2 > buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + n);
}

bool FrameDecoder::Next(Channel::Message* out) {
  if (failed_) return false;
  const uint8_t* p = buffer_.data() + consumed_;
  const size_t n = buffer_.size() - consumed_;
  size_t pos = 0;

  // Sender byte.
  if (n < 1) return false;
  if (p[0] > 1) {
    failed_ = true;
    return false;
  }
  pos = 1;

  // Label, then payload: varint length + raw bytes each.
  uint64_t lens[2] = {0, 0};
  size_t starts[2] = {0, 0};
  for (int part = 0; part < 2; ++part) {
    uint64_t len = 0;
    size_t used = 0;
    switch (ReadVarintPrefix(p + pos, n - pos, &len, &used)) {
      case VarintState::kNeedMore:
        return false;
      case VarintState::kMalformed:
        failed_ = true;
        return false;
      case VarintState::kOk:
        break;
    }
    pos += used;
    if (len > max_frame_bytes_) {
      // A length beyond the frame bound cannot be satisfied by feeding
      // more bytes we are willing to buffer: latch failure instead of
      // letting a hostile 2^60 "length" grow the buffer forever.
      failed_ = true;
      return false;
    }
    if (len > n - pos) return false;  // Legitimate frame, needs more bytes.
    starts[part] = pos;
    lens[part] = len;
    pos += static_cast<size_t>(len);
  }

  out->from = static_cast<Party>(p[0]);
  out->label.assign(reinterpret_cast<const char*>(p + starts[0]),
                    static_cast<size_t>(lens[0]));
  out->payload.assign(p + starts[1], p + starts[1] + lens[1]);
  consumed_ += pos;
  return true;
}

}  // namespace setrec
