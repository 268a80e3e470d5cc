// Service-vs-direct equivalence: a session driven through SyncService must
// produce a BIT-IDENTICAL transcript (same messages, senders, labels,
// bytes, rounds) and the same recovered set as the blocking Reconcile call
// with the same seeds — including sessions whose Alice messages come out of
// the shared-set memoization cache.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/workload.h"
#include "service/sync_service.h"

namespace setrec {
namespace {

struct DirectRun {
  Result<SsrOutcome> outcome;
  std::vector<Channel::Message> transcript;
};

DirectRun RunDirect(SsrProtocolKind kind, const SsrParams& params,
                    const SetOfSets& alice, const SetOfSets& bob,
                    std::optional<size_t> known_d) {
  std::unique_ptr<SetsOfSetsProtocol> protocol = MakeSsrProtocol(kind, params);
  Channel channel;
  DirectRun run{protocol->Reconcile(alice, bob, known_d, &channel),
                channel.transcript()};
  return run;
}

/// An on_send hook that records every message the session sends.
std::function<void(const Channel::Message&)> RecordInto(
    std::vector<Channel::Message>* sent) {
  return [sent](const Channel::Message& m) { sent->push_back(m); };
}

void ExpectSameTranscript(const std::vector<Channel::Message>& direct,
                          const std::vector<Channel::Message>& service,
                          const char* what) {
  ASSERT_EQ(direct.size(), service.size()) << what;
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(static_cast<int>(direct[i].from),
              static_cast<int>(service[i].from))
        << what << " message " << i;
    EXPECT_EQ(direct[i].label, service[i].label) << what << " message " << i;
    EXPECT_EQ(direct[i].payload, service[i].payload)
        << what << " message " << i;
  }
}

struct Case {
  SsrProtocolKind kind;
  bool known_d;
  WireCodec codec = WireCodec::kDense;
};

class ServiceEquivalence : public ::testing::TestWithParam<Case> {};

TEST_P(ServiceEquivalence, TranscriptsAreBitIdentical) {
  const Case& c = GetParam();
  SsrWorkloadSpec spec;
  spec.num_children = 24;
  spec.child_size = 12;
  spec.changes = 5;
  spec.seed = 17 + static_cast<uint64_t>(c.kind) * 11 + (c.known_d ? 1 : 0);
  SsrWorkload w = MakeSsrWorkload(spec);

  SsrParams params;
  params.max_child_size = spec.child_size + spec.changes + 2;
  params.max_children = spec.num_children + spec.changes;
  params.seed = spec.seed + 1000;
  params.wire_codec = c.codec;
  std::optional<size_t> known_d =
      c.known_d ? std::optional<size_t>(w.applied_changes) : std::nullopt;

  DirectRun direct = RunDirect(c.kind, params, w.alice, w.bob, known_d);
  ASSERT_TRUE(direct.outcome.ok()) << direct.outcome.status().ToString();

  SyncService service;
  std::vector<Channel::Message> sent;
  SessionSpec session;
  session.label = "equivalence";
  session.protocol = c.kind;
  session.params = params;
  session.alice = std::make_shared<SetOfSets>(w.alice);
  session.bob = std::make_shared<SetOfSets>(w.bob);
  session.known_d = known_d;
  session.on_send = RecordInto(&sent);
  service.Submit(std::move(session));
  service.RunToCompletion();

  std::vector<SessionResult> results = service.TakeResults();
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].status.ok()) << results[0].status.ToString();

  // Same bits, same rounds, same attempts, same recovery.
  EXPECT_EQ(results[0].stats.rounds, direct.outcome.value().stats.rounds);
  EXPECT_EQ(results[0].stats.bytes, direct.outcome.value().stats.bytes);
  EXPECT_EQ(results[0].stats.attempts, direct.outcome.value().stats.attempts);
  EXPECT_EQ(results[0].recovered, direct.outcome.value().recovered);
  EXPECT_EQ(results[0].recovered, Canonicalize(w.alice));

  ExpectSameTranscript(direct.transcript, sent, SsrProtocolKindName(c.kind));
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, ServiceEquivalence,
    ::testing::Values(Case{SsrProtocolKind::kNaive, true},
                      Case{SsrProtocolKind::kNaive, false},
                      Case{SsrProtocolKind::kIblt2, true},
                      Case{SsrProtocolKind::kIblt2, false},
                      Case{SsrProtocolKind::kCascade, true},
                      Case{SsrProtocolKind::kCascade, false},
                      Case{SsrProtocolKind::kMultiRound, true},
                      Case{SsrProtocolKind::kMultiRound, false},
                      // Same equivalence under the sparse wire codec: the
                      // memoized Alice messages are the ENCODED frames, so
                      // cache replays must stay bit-identical per codec.
                      Case{SsrProtocolKind::kNaive, true,
                           WireCodec::kSparse},
                      Case{SsrProtocolKind::kNaive, false,
                           WireCodec::kSparse},
                      Case{SsrProtocolKind::kIblt2, true,
                           WireCodec::kSparse},
                      Case{SsrProtocolKind::kIblt2, false,
                           WireCodec::kSparse},
                      Case{SsrProtocolKind::kCascade, true,
                           WireCodec::kSparse},
                      Case{SsrProtocolKind::kCascade, false,
                           WireCodec::kSparse},
                      Case{SsrProtocolKind::kMultiRound, true,
                           WireCodec::kSparse},
                      Case{SsrProtocolKind::kMultiRound, false,
                           WireCodec::kSparse}));

TEST(ServiceCacheEquivalence, SharedAliceSessionsReplayIdenticalMessages) {
  // Many clients against one registered server set: later sessions hit the
  // Alice-message cache, and every one must still match its own direct run
  // bit for bit.
  SsrWorkloadSpec spec;
  spec.num_children = 20;
  spec.child_size = 10;
  spec.changes = 3;
  spec.seed = 99;
  SsrWorkload base = MakeSsrWorkload(spec);

  SsrParams params;
  params.max_child_size = spec.child_size + spec.changes + 2;
  params.max_children = spec.num_children + spec.changes;
  params.seed = 4242;

  SyncService service;
  auto server_set = std::make_shared<SetOfSets>(base.alice);
  service.RegisterSharedSet(server_set);

  constexpr int kClients = 8;
  std::vector<std::vector<Channel::Message>> sent(kClients);
  std::vector<SetOfSets> bobs;
  for (int i = 0; i < kClients; ++i) {
    // Each client drifts from the server set by one or two element edits.
    SetOfSets bob = *server_set;
    ChildSet& child = bob[static_cast<size_t>(i) % bob.size()];
    if (child.size() > 1) {
      child.erase(child.begin() + (i % static_cast<int>(child.size())));
    }
    bob[(static_cast<size_t>(i) + 3) % bob.size()].push_back(
        (uint64_t{1} << 40) + static_cast<uint64_t>(i));
    bobs.push_back(Canonicalize(std::move(bob)));
  }

  for (int i = 0; i < kClients; ++i) {
    SessionSpec session;
    session.label = "client" + std::to_string(i);
    session.protocol = SsrProtocolKind::kIblt2;
    session.params = params;
    session.alice = server_set;
    session.bob = std::make_shared<SetOfSets>(bobs[static_cast<size_t>(i)]);
    session.known_d = spec.changes + 4;
    session.on_send = RecordInto(&sent[static_cast<size_t>(i)]);
    service.Submit(std::move(session));
  }
  service.RunToCompletion();

  std::vector<SessionResult> results = service.TakeResults();
  ASSERT_EQ(results.size(), static_cast<size_t>(kClients));
  EXPECT_GT(service.stats().cache_hits, 0u)
      << "shared-alice sessions should replay memoized messages";

  // Results arrive in completion order; map back to the submitted client
  // by session id (1-based submission order, as Submit documents).
  for (const SessionResult& result : results) {
    ASSERT_GE(result.id, 1u);
    ASSERT_LE(result.id, static_cast<uint64_t>(kClients));
    const int i = static_cast<int>(result.id - 1);
    ASSERT_TRUE(result.status.ok())
        << "client " << i << ": " << result.status.ToString();
    DirectRun direct =
        RunDirect(SsrProtocolKind::kIblt2, params, *server_set, bobs[static_cast<size_t>(i)],
                  spec.changes + 4);
    ASSERT_TRUE(direct.outcome.ok());
    EXPECT_EQ(result.recovered, direct.outcome.value().recovered);
    EXPECT_EQ(result.stats.bytes, direct.outcome.value().stats.bytes);
    ExpectSameTranscript(direct.transcript, sent[static_cast<size_t>(i)],
                         result.label.c_str());
  }
}

TEST(ServiceCacheEquivalence, MixedCodecSessionsNeverCrossReplay) {
  // Dense and sparse sessions against ONE registered set, interleaved: the
  // Alice-message memo keys include the wire codec, so a sparse session
  // must never be served a cached dense frame (or vice versa) — each
  // session replays its own codec's direct transcript bit for bit.
  SsrWorkloadSpec spec;
  spec.num_children = 20;
  spec.child_size = 10;
  spec.changes = 3;
  spec.seed = 271;
  SsrWorkload base = MakeSsrWorkload(spec);

  SsrParams params;
  params.max_child_size = spec.child_size + spec.changes + 2;
  params.max_children = spec.num_children + spec.changes;
  params.seed = 3131;

  SyncService service;
  auto server_set = std::make_shared<SetOfSets>(base.alice);
  service.RegisterSharedSet(server_set);

  // Codec per submitted session, alternating so both sides get cache hits.
  const WireCodec codecs[] = {WireCodec::kDense, WireCodec::kSparse,
                              WireCodec::kDense, WireCodec::kSparse,
                              WireCodec::kSparse, WireCodec::kDense};
  constexpr int kClients = 6;
  std::vector<std::vector<Channel::Message>> sent(kClients);
  std::vector<SetOfSets> bobs;
  for (int i = 0; i < kClients; ++i) {
    SetOfSets bob = *server_set;
    bob[static_cast<size_t>(i) % bob.size()].push_back(
        (uint64_t{1} << 41) + static_cast<uint64_t>(i));
    bobs.push_back(Canonicalize(std::move(bob)));
  }
  for (int i = 0; i < kClients; ++i) {
    SessionSpec session;
    session.label = "mixed" + std::to_string(i);
    session.protocol = SsrProtocolKind::kIblt2;
    session.params = params;
    session.params.wire_codec = codecs[i];
    session.alice = server_set;
    session.bob = std::make_shared<SetOfSets>(bobs[static_cast<size_t>(i)]);
    session.known_d = spec.changes + 2;
    session.on_send = RecordInto(&sent[static_cast<size_t>(i)]);
    service.Submit(std::move(session));
  }
  service.RunToCompletion();

  std::vector<SessionResult> results = service.TakeResults();
  ASSERT_EQ(results.size(), static_cast<size_t>(kClients));
  EXPECT_GT(service.stats().cache_hits, 0u);
  for (const SessionResult& result : results) {
    const int i = static_cast<int>(result.id - 1);
    ASSERT_TRUE(result.status.ok())
        << "client " << i << ": " << result.status.ToString();
    SsrParams session_params = params;
    session_params.wire_codec = codecs[i];
    DirectRun direct = RunDirect(SsrProtocolKind::kIblt2, session_params,
                                 *server_set, bobs[static_cast<size_t>(i)], spec.changes + 2);
    ASSERT_TRUE(direct.outcome.ok());
    EXPECT_EQ(result.recovered, direct.outcome.value().recovered);
    EXPECT_EQ(result.stats.bytes, direct.outcome.value().stats.bytes);
    ExpectSameTranscript(direct.transcript, sent[static_cast<size_t>(i)],
                         result.label.c_str());
  }
}

}  // namespace
}  // namespace setrec
