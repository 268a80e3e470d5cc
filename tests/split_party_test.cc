// Split-party equivalence: per protocol × SSRK/SSRU, the Alice-half /
// Bob-half composition must produce byte-identical transcripts to the
// single-call Reconcile path — driven three ways: explicit halves over one
// shared channel, a SyncService kAliceHalf session fed through
// DeliverRemote against a locally pumped Bob half, and a kBobHalf session
// against a locally pumped Alice half. Error paths (invalid inputs) must
// terminate both halves with the same status instead of deadlocking.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "core/build_context.h"
#include "core/split_party.h"
#include "core/workload.h"
#include "service/sync_service.h"

namespace setrec {
namespace {

struct Case {
  SsrProtocolKind kind;
  bool known_d;
  WireCodec codec = WireCodec::kDense;

  std::string Name() const {
    return std::string(SsrProtocolKindName(kind)) +
           (known_d ? "_SSRK" : "_SSRU") +
           (codec == WireCodec::kSparse ? "_sparse" : "");
  }
};

struct Fixture {
  SsrParams params;
  SetOfSets alice;
  SetOfSets bob;
  std::optional<size_t> known_d;
};

Fixture MakeFixture(const Case& c) {
  SsrWorkloadSpec spec;
  spec.num_children = 20;
  spec.child_size = 10;
  spec.changes = 4;
  spec.seed = 1300 + static_cast<uint64_t>(c.kind) * 7 + (c.known_d ? 1 : 0);
  SsrWorkload w = MakeSsrWorkload(spec);
  Fixture f;
  f.params.max_child_size = spec.child_size + spec.changes + 2;
  f.params.max_children = spec.num_children + spec.changes;
  f.params.seed = spec.seed + 17;
  f.params.wire_codec = c.codec;
  f.alice = std::move(w.alice);
  f.bob = std::move(w.bob);
  if (c.known_d) f.known_d = w.applied_changes;
  return f;
}

void ExpectSameTranscript(const std::vector<Channel::Message>& want,
                          const std::vector<Channel::Message>& got,
                          const char* what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(static_cast<int>(want[i].from), static_cast<int>(got[i].from))
        << what << " message " << i;
    EXPECT_EQ(want[i].label, got[i].label) << what << " message " << i;
    EXPECT_EQ(want[i].payload, got[i].payload) << what << " message " << i;
  }
}

class SplitParty : public ::testing::TestWithParam<Case> {};

TEST_P(SplitParty, ExplicitHalvesMatchComposedReconcile) {
  const Fixture f = MakeFixture(GetParam());
  std::unique_ptr<SetsOfSetsProtocol> protocol =
      MakeSsrProtocol(GetParam().kind, f.params);

  Channel direct_channel;
  Result<SsrOutcome> direct =
      protocol->Reconcile(f.alice, f.bob, f.known_d, &direct_channel);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();

  // Drive the two halves by hand over one shared channel: under the inline
  // context every send pumps the peer's parked receive, so starting both
  // runs the whole ping-pong.
  Channel split_channel;
  InlineContext ctx;
  Task<Status> alice_half =
      protocol->ReconcileAsyncAlice(f.alice, f.known_d, &split_channel, &ctx);
  Task<Result<SsrOutcome>> bob_half =
      protocol->ReconcileAsyncBob(f.bob, f.known_d, &split_channel, &ctx);
  alice_half.Start();
  bob_half.Start();
  ASSERT_TRUE(alice_half.Done()) << "Alice half parked forever";
  ASSERT_TRUE(bob_half.Done()) << "Bob half parked forever";
  EXPECT_TRUE(alice_half.TakeResult().ok());
  Result<SsrOutcome> split = bob_half.TakeResult();
  ASSERT_TRUE(split.ok()) << split.status().ToString();

  EXPECT_EQ(split.value().recovered, direct.value().recovered);
  EXPECT_EQ(split.value().recovered, Canonicalize(f.alice));
  EXPECT_EQ(split.value().stats.attempts, direct.value().stats.attempts);
  ExpectSameTranscript(direct_channel.transcript(),
                       split_channel.transcript(), "explicit halves");
}

// Pumps frames between a service-hosted half session (via on_send +
// DeliverRemote) and a locally driven peer half until the peer completes.
// `from_service` is the vector the session's on_send appends to.
template <typename PeerTask>
void PumpServiceAgainstLocalPeer(SyncService* service, uint64_t session_id,
                                 std::vector<Channel::Message>* from_service,
                                 Channel* peer_channel,
                                 InlineContext* peer_ctx, PeerTask* peer_task,
                                 Party local_party) {
  // Forwards the local party's next unforwarded sends. DeliverRemote
  // gates on the service half being parked at the slot (its turn check),
  // so a rejected delivery is retried after the next Step.
  size_t forwarded = 0;
  auto forward = [&] {
    while (forwarded < peer_channel->rounds()) {
      const Channel::Message& m = peer_channel->transcript()[forwarded];
      if (m.from == local_party &&
          !service->DeliverRemote(session_id, m)) {
        return;  // Service half not at this slot yet; retry next round.
      }
      ++forwarded;
    }
  };
  for (int iteration = 0;
       iteration < 1000 &&
       (!peer_task->Done() || forwarded < peer_channel->rounds());
       ++iteration) {
    forward();
    service->Step();
    // Service-side sends travel back into the local transcript.
    const bool delivered = !from_service->empty();
    for (Channel::Message& m : *from_service) {
      peer_channel->Send(m.from, std::move(m.payload), std::move(m.label));
    }
    from_service->clear();
    if (delivered) peer_ctx->PumpReceives();
  }
  ASSERT_TRUE(peer_task->Done()) << "local peer half never finished";
  ASSERT_EQ(forwarded, peer_channel->rounds())
      << "service session never accepted the final frames";
  service->RunToCompletion();
}

TEST_P(SplitParty, ServiceAliceHalfMatchesDirectTranscript) {
  const Fixture f = MakeFixture(GetParam());
  std::unique_ptr<SetsOfSetsProtocol> protocol =
      MakeSsrProtocol(GetParam().kind, f.params);

  Channel direct_channel;
  Result<SsrOutcome> direct =
      protocol->Reconcile(f.alice, f.bob, f.known_d, &direct_channel);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();

  // Server side: the service hosts only Alice's half against a registered
  // shared set; its sends surface through on_send.
  SyncService service;
  auto server_set = std::make_shared<SetOfSets>(f.alice);
  service.RegisterSharedSet(server_set);
  std::vector<Channel::Message> from_service;
  SessionSpec spec;
  spec.label = "alice-half";
  spec.role = SessionRole::kAliceHalf;
  spec.protocol = GetParam().kind;
  spec.params = f.params;
  spec.alice = server_set;
  spec.known_d = f.known_d;
  spec.on_send = [&from_service](const Channel::Message& m) {
    from_service.push_back(m);
  };
  uint64_t id = service.Submit(std::move(spec));

  // Client side: Bob's half driven locally.
  Channel bob_channel;
  InlineContext bob_ctx;
  Task<Result<SsrOutcome>> bob_half =
      protocol->ReconcileAsyncBob(f.bob, f.known_d, &bob_channel, &bob_ctx);
  bob_half.Start();
  PumpServiceAgainstLocalPeer(&service, id, &from_service, &bob_channel,
                              &bob_ctx, &bob_half, Party::kBob);

  Result<SsrOutcome> outcome = bob_half.TakeResult();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome.value().recovered, direct.value().recovered);
  ExpectSameTranscript(direct_channel.transcript(), bob_channel.transcript(),
                       "service alice half");

  std::vector<SessionResult> results = service.TakeResults();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].status.ok()) << results[0].status.ToString();
  EXPECT_EQ(results[0].stats.rounds, direct.value().stats.rounds);
  EXPECT_EQ(results[0].stats.bytes, direct.value().stats.bytes);
  EXPECT_TRUE(results[0].recovered.empty())
      << "Alice's half must not fabricate a recovery";
}

TEST_P(SplitParty, ServiceBobHalfMatchesDirectTranscript) {
  const Fixture f = MakeFixture(GetParam());
  std::unique_ptr<SetsOfSetsProtocol> protocol =
      MakeSsrProtocol(GetParam().kind, f.params);

  Channel direct_channel;
  Result<SsrOutcome> direct =
      protocol->Reconcile(f.alice, f.bob, f.known_d, &direct_channel);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();

  SyncService service;
  std::vector<Channel::Message> from_service;
  SessionSpec spec;
  spec.label = "bob-half";
  spec.role = SessionRole::kBobHalf;
  spec.protocol = GetParam().kind;
  spec.params = f.params;
  spec.bob = std::make_shared<SetOfSets>(f.bob);
  spec.known_d = f.known_d;
  spec.on_send = [&from_service](const Channel::Message& m) {
    from_service.push_back(m);
  };
  uint64_t id = service.Submit(std::move(spec));

  Channel alice_channel;
  InlineContext alice_ctx;
  Task<Status> alice_half = protocol->ReconcileAsyncAlice(
      f.alice, f.known_d, &alice_channel, &alice_ctx);
  alice_half.Start();
  PumpServiceAgainstLocalPeer(&service, id, &from_service, &alice_channel,
                              &alice_ctx, &alice_half, Party::kAlice);
  EXPECT_TRUE(alice_half.TakeResult().ok());

  std::vector<SessionResult> results = service.TakeResults();
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].status.ok()) << results[0].status.ToString();
  // The Bob half recovers Alice's set — the service-side result holds it.
  EXPECT_EQ(results[0].recovered, direct.value().recovered);
  ExpectSameTranscript(direct_channel.transcript(),
                       alice_channel.transcript(), "service bob half");
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, SplitParty,
    ::testing::Values(Case{SsrProtocolKind::kNaive, true},
                      Case{SsrProtocolKind::kNaive, false},
                      Case{SsrProtocolKind::kIblt2, true},
                      Case{SsrProtocolKind::kIblt2, false},
                      Case{SsrProtocolKind::kCascade, true},
                      Case{SsrProtocolKind::kCascade, false},
                      Case{SsrProtocolKind::kMultiRound, true},
                      Case{SsrProtocolKind::kMultiRound, false},
                      // The sparse wire codec must hold the same
                      // half-vs-composed equivalence: the codec reshapes
                      // table frames, never the protocol state machine.
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
                           WireCodec::kSparse}),
    [](const ::testing::TestParamInfo<Case>& param_info) {
      return param_info.param.Name();
    });

TEST(SplitPartyErrors, InvalidAliceAbortsBothHalvesWithSameStatus) {
  SsrParams params;
  params.max_child_size = 4;
  params.seed = 5;
  SetOfSets bad_alice = {{3, 2, 1}};  // Not sorted: invalid.
  SetOfSets bob = {{1, 2, 3}};
  for (SsrProtocolKind kind :
       {SsrProtocolKind::kNaive, SsrProtocolKind::kIblt2,
        SsrProtocolKind::kCascade, SsrProtocolKind::kMultiRound}) {
    std::unique_ptr<SetsOfSetsProtocol> protocol =
        MakeSsrProtocol(kind, params);
    for (std::optional<size_t> d :
         {std::optional<size_t>(2), std::optional<size_t>()}) {
      Channel channel;
      Result<SsrOutcome> outcome =
          protocol->Reconcile(bad_alice, bob, d, &channel);
      ASSERT_FALSE(outcome.ok()) << SsrProtocolKindName(kind);
      EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument)
          << SsrProtocolKindName(kind);
      // The abort frame carrying the status is on the transcript.
      ASSERT_GE(channel.rounds(), 1u);
      bool saw_abort = false;
      for (const Channel::Message& m : channel.transcript()) {
        if (IsAbortMessage(m)) saw_abort = true;
      }
      EXPECT_TRUE(saw_abort) << SsrProtocolKindName(kind);
    }
  }
}

TEST(SplitPartyErrors, InvalidBobAbortsBothHalvesWithSameStatus) {
  SsrParams params;
  params.max_child_size = 4;
  params.seed = 6;
  SetOfSets alice = {{1, 2, 3}};
  SetOfSets bad_bob = {{1, 1, 2}};  // Duplicate elements: invalid.
  for (SsrProtocolKind kind :
       {SsrProtocolKind::kNaive, SsrProtocolKind::kIblt2,
        SsrProtocolKind::kCascade, SsrProtocolKind::kMultiRound}) {
    std::unique_ptr<SetsOfSetsProtocol> protocol =
        MakeSsrProtocol(kind, params);
    for (std::optional<size_t> d :
         {std::optional<size_t>(2), std::optional<size_t>()}) {
      Channel channel;
      Result<SsrOutcome> outcome =
          protocol->Reconcile(alice, bad_bob, d, &channel);
      ASSERT_FALSE(outcome.ok()) << SsrProtocolKindName(kind);
      EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument)
          << SsrProtocolKindName(kind);
    }
  }
}

}  // namespace
}  // namespace setrec
