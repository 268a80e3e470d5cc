// Wire-codec negotiation over the hello frame, end to end: the one hello
// layout carries an explicit codec byte and, for a traced client, a trace
// id (invisible to the protocol bytes); anything else fails closed. A
// session over a real socket must produce the exact transcript of the
// direct Reconcile call under either codec, and a sparse session must
// spend fewer wire bytes than its dense twin.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/workload.h"
#include "net/net_pump.h"
#include "net/stream_party.h"
#include "net/wire.h"
#include "obs/trace.h"
#include "service/sync_service.h"

namespace setrec {
namespace {

HelloSpec MakeSpec(WireCodec codec, uint64_t trace_id = 0) {
  HelloSpec spec;
  spec.protocol = SsrProtocolKind::kCascade;
  spec.set_id = 42;
  spec.params.max_child_size = 12;
  spec.params.max_children = 20;
  spec.params.seed = 777;
  spec.params.wire_codec = codec;
  spec.known_d = 5;
  spec.trace_id = trace_id;
  return spec;
}

TEST(HelloCodecTest, OneLayoutRoundTripsAndEverythingElseFailsClosed) {
  for (WireCodec codec : {WireCodec::kDense, WireCodec::kSparse}) {
    for (uint64_t trace_id : {uint64_t{0}, uint64_t{0xdeadbeef}}) {
      SCOPED_TRACE(::testing::Message() << "codec " << static_cast<int>(codec)
                                        << " trace " << trace_id);
      const HelloSpec spec = MakeSpec(codec, trace_id);
      const Channel::Message hello = MakeHelloMessage(spec);
      ASSERT_FALSE(hello.payload.empty());
      EXPECT_EQ(hello.payload[0], 2) << "every hello is version 2";
      Result<HelloSpec> parsed = ParseHelloMessage(hello);
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
      EXPECT_EQ(parsed.value().protocol, spec.protocol);
      EXPECT_EQ(parsed.value().set_id, spec.set_id);
      EXPECT_EQ(parsed.value().known_d, spec.known_d);
      EXPECT_EQ(parsed.value().params, spec.params);
      EXPECT_EQ(parsed.value().trace_id, trace_id);
    }
  }

  // Malformed variants of an untraced frame (its last byte is the codec
  // byte) and of a traced one (its last 8 bytes are the trace id).
  const std::vector<uint8_t> untraced =
      MakeHelloMessage(MakeSpec(WireCodec::kSparse)).payload;
  const std::vector<uint8_t> traced =
      MakeHelloMessage(MakeSpec(WireCodec::kSparse, 0xdeadbeef)).payload;
  struct Case {
    std::string what;
    std::vector<uint8_t> payload;
  };
  std::vector<Case> cases;
  for (int version : {0, 1, 3, 4, 255}) {
    for (const std::vector<uint8_t>& frame : {untraced, traced}) {
      Case c{"version " + std::to_string(version), frame};
      c.payload[0] = static_cast<uint8_t>(version);
      cases.push_back(std::move(c));
    }
  }
  Case no_codec{"missing codec byte", untraced};
  no_codec.payload.pop_back();
  cases.push_back(std::move(no_codec));
  for (int codec : {2, 255}) {
    Case c{"codec " + std::to_string(codec), untraced};
    c.payload.back() = static_cast<uint8_t>(codec);
    cases.push_back(std::move(c));
  }
  for (int extra : {1, 2, 3, 4, 5, 6, 7, 9, 16}) {
    Case c{std::to_string(extra) + " bytes after the codec byte", untraced};
    c.payload.insert(c.payload.end(), static_cast<size_t>(extra), 0x5a);
    cases.push_back(std::move(c));
  }
  Case zero_id{"zero trace id", traced};
  std::fill(zero_id.payload.end() - 8, zero_id.payload.end(), 0);
  cases.push_back(std::move(zero_id));

  for (const Case& c : cases) {
    const Channel::Message m{Party::kBob, c.payload, kHelloLabel};
    EXPECT_FALSE(ParseHelloMessage(m).ok()) << c.what;
  }
}

TEST(HelloCodecTest, UntracedHelloIsByteIdenticalToV2) {
  // Tracing costs untraced peers zero wire bytes: the untraced frame is
  // pinned byte for byte, and the traced frame only appends the 8-byte id.
  const std::vector<uint8_t> want = {
      0x02, 0x02, 0x2a, 0x01, 0x05, 0x0c, 0x14, 0x00, 0x09,
      0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x40, 0x01};
  const std::vector<uint8_t> untraced =
      MakeHelloMessage(MakeSpec(WireCodec::kSparse)).payload;
  EXPECT_EQ(untraced, want);
  std::vector<uint8_t> traced =
      MakeHelloMessage(MakeSpec(WireCodec::kSparse, 1)).payload;
  ASSERT_EQ(traced.size(), untraced.size() + 8);
  traced.resize(untraced.size());
  EXPECT_EQ(traced, untraced);
}

struct Fixture {
  SsrParams params;
  SetOfSets alice;
  SetOfSets bob;
  std::optional<size_t> known_d;
};

Fixture MakeFixture(SsrProtocolKind kind, WireCodec codec) {
  SsrWorkloadSpec spec;
  spec.num_children = 16;
  spec.child_size = 8;
  spec.changes = 3;
  spec.seed = 8800 + static_cast<uint64_t>(kind) * 13;
  SsrWorkload w = MakeSsrWorkload(spec);
  Fixture f;
  f.params.max_child_size = spec.child_size + spec.changes + 2;
  f.params.max_children = spec.num_children + spec.changes;
  f.params.seed = spec.seed + 9;
  f.params.wire_codec = codec;
  f.alice = std::move(w.alice);
  f.bob = std::move(w.bob);
  f.known_d = w.applied_changes;
  return f;
}

struct ClientResult {
  Result<SsrOutcome> outcome = Status::Ok();
  std::vector<Channel::Message> transcript;
};

// The sync_client flow; a nonzero `trace_id` sends a traced hello.
ClientResult RunClient(int fd, SsrProtocolKind kind, uint64_t set_id,
                       const Fixture& f, uint64_t trace_id) {
  ClientResult result;
  HelloSpec hello;
  hello.protocol = kind;
  hello.set_id = set_id;
  hello.params = f.params;
  hello.known_d = f.known_d;
  hello.trace_id = trace_id;
  if (Status s = SendHello(fd, hello); !s.ok()) {
    result.outcome = s;
    return result;
  }
  std::unique_ptr<SetsOfSetsProtocol> protocol =
      MakeSsrProtocol(kind, f.params);
  Channel channel;
  result.outcome =
      RunBobHalfOverFd(*protocol, f.bob, f.known_d, fd, &channel);
  result.transcript = channel.transcript();
  return result;
}

// One socketpair session against a NetPump-fronted service; returns the
// client's view plus the server-side session byte count.
struct SessionRun {
  ClientResult client;
  size_t server_bytes = 0;
  std::vector<obs::CompletedTrace> server_traces;
};

SessionRun RunSession(SsrProtocolKind kind, const Fixture& f,
                      uint64_t trace_id = 0) {
  SessionRun run;
  SyncService service;
  uint64_t set_id =
      service.RegisterSharedSet(std::make_shared<SetOfSets>(f.alice));
  NetPump pump(&service);
  int sv[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  EXPECT_TRUE(pump.AdoptConnection(sv[0]).ok());
  std::thread client_thread([&] {
    run.client = RunClient(sv[1], kind, set_id, f, trace_id);
    ::close(sv[1]);
  });
  pump.DrainConnections();
  client_thread.join();
  std::vector<SessionResult> results = pump.TakeResults();
  EXPECT_EQ(results.size(), 1u);
  EXPECT_EQ(pump.stats().protocol_errors, 0u);
  if (!results.empty()) {
    EXPECT_TRUE(results[0].status.ok()) << results[0].status.ToString();
    run.server_bytes = results[0].stats.bytes;
  }
  run.server_traces = service.tracer().SnapshotCompleted();
  return run;
}

void ExpectSameTranscript(const std::vector<Channel::Message>& want,
                          const std::vector<Channel::Message>& got,
                          const char* what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].label, got[i].label) << what << " message " << i;
    EXPECT_EQ(want[i].payload, got[i].payload) << what << " message " << i;
  }
}

class NetCodecInterop : public ::testing::TestWithParam<SsrProtocolKind> {};

TEST_P(NetCodecInterop, SparseSessionMatchesDirectAndBeatsDense) {
  const SsrProtocolKind kind = GetParam();

  // Direct halves under both codecs (the reference transcripts).
  const Fixture dense_f = MakeFixture(kind, WireCodec::kDense);
  const Fixture sparse_f = MakeFixture(kind, WireCodec::kSparse);
  Channel dense_direct, sparse_direct;
  Result<SsrOutcome> dense_ref =
      MakeSsrProtocol(kind, dense_f.params)
          ->Reconcile(dense_f.alice, dense_f.bob, dense_f.known_d,
                      &dense_direct);
  Result<SsrOutcome> sparse_ref =
      MakeSsrProtocol(kind, sparse_f.params)
          ->Reconcile(sparse_f.alice, sparse_f.bob, sparse_f.known_d,
                      &sparse_direct);
  ASSERT_TRUE(dense_ref.ok()) << dense_ref.status().ToString();
  ASSERT_TRUE(sparse_ref.ok()) << sparse_ref.status().ToString();
  // Same protocol, same seeds: both codecs must recover the same set.
  EXPECT_EQ(sparse_ref.value().recovered, dense_ref.value().recovered);
  EXPECT_LE(sparse_ref.value().stats.bytes, dense_ref.value().stats.bytes);

  // A sparse-negotiated socket session replays the direct sparse bytes.
  SessionRun sparse_run = RunSession(kind, sparse_f);
  ASSERT_TRUE(sparse_run.client.outcome.ok())
      << sparse_run.client.outcome.status().ToString();
  EXPECT_EQ(sparse_run.client.outcome.value().recovered,
            Canonicalize(sparse_f.alice));
  ExpectSameTranscript(sparse_direct.transcript(),
                       sparse_run.client.transcript, "sparse session");
  EXPECT_EQ(sparse_run.server_bytes, sparse_ref.value().stats.bytes);

  // A dense-negotiated session against the same server replays the direct
  // dense bytes.
  SessionRun dense_run = RunSession(kind, dense_f);
  ASSERT_TRUE(dense_run.client.outcome.ok())
      << dense_run.client.outcome.status().ToString();
  EXPECT_EQ(dense_run.client.outcome.value().recovered,
            Canonicalize(dense_f.alice));
  ExpectSameTranscript(dense_direct.transcript(),
                       dense_run.client.transcript, "dense session");
  EXPECT_EQ(dense_run.server_bytes, dense_ref.value().stats.bytes);
}

TEST(TracedHelloInterop, TracedSessionMatchesUntracedAndTagsServerTrace) {
  const SsrProtocolKind kind = SsrProtocolKind::kCascade;
  const Fixture f = MakeFixture(kind, WireCodec::kSparse);

  SessionRun untraced = RunSession(kind, f);
  SessionRun traced = RunSession(kind, f, /*trace_id=*/0xfeedface);
  ASSERT_TRUE(untraced.client.outcome.ok())
      << untraced.client.outcome.status().ToString();
  ASSERT_TRUE(traced.client.outcome.ok())
      << traced.client.outcome.status().ToString();

  // Tracing is invisible to the protocol: byte-identical transcripts and
  // byte counts whether or not the hello carried a trace id.
  ExpectSameTranscript(untraced.client.transcript, traced.client.transcript,
                       "traced vs untraced");
  EXPECT_EQ(untraced.server_bytes, traced.server_bytes);

  // The server tagged its half of the traced session and retained it for
  // TRACE?; the untraced session left nothing behind.
  EXPECT_TRUE(untraced.server_traces.empty());
  ASSERT_EQ(traced.server_traces.size(), 1u);
  const obs::CompletedTrace& trace = traced.server_traces[0];
  EXPECT_EQ(trace.trace_id, 0xfeedfaceu);
  EXPECT_FALSE(trace.slow);
  ASSERT_FALSE(trace.events.empty());
  // The session span frames the server half; phases carry the same id.
  EXPECT_EQ(trace.events.front().phase, obs::TracePhase::kSession);
  EXPECT_TRUE(trace.events.front().enter);
  EXPECT_EQ(trace.events.back().phase, obs::TracePhase::kSession);
  EXPECT_FALSE(trace.events.back().enter);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, NetCodecInterop,
                         ::testing::Values(SsrProtocolKind::kNaive,
                                           SsrProtocolKind::kIblt2,
                                           SsrProtocolKind::kCascade,
                                           SsrProtocolKind::kMultiRound),
                         [](const ::testing::TestParamInfo<SsrProtocolKind>&
                                param_info) {
                           return std::string(
                               SsrProtocolKindName(param_info.param));
                         });

}  // namespace
}  // namespace setrec
