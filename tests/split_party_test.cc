// Split-party equivalence: per protocol × SSRK/SSRU, the Alice-half /
// Bob-half composition must produce byte-identical transcripts to the
// single-call Reconcile path — driven three ways: explicit halves over one
// shared channel, a SyncService kAliceHalf session fed through
// DeliverRemote against a locally pumped Bob half, and a kBobHalf session
// against a locally pumped Alice half. Error paths (invalid inputs) must
// terminate both halves with the same status instead of deadlocking. The
// attempt ladder both halves climb is checked rung by rung, without a
// session, against the seed, d and d-hat formulas each protocol used to
// carry itself.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/build_context.h"
#include "core/encoding.h"
#include "core/split_party.h"
#include "core/workload.h"
#include "hashing/random.h"
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

// --- The attempt ladder, as a pure function ------------------------------
//
// Every rung of every shape and mode against the formulas each protocol's
// halves used before the ladder: seeds DeriveSeed(seed, tag + trial), or
// tag + 1000 + trial on an SSRU doubling ladder whose child coins are its
// first rung's; a known d floored at 1; d or d-hat doubled after each fail
// verdict and clamped at MaxWireDHat of the protocol's width.

constexpr uint64_t kTag = 0x74657374ull;  // "test"

SsrParams LadderParams() {
  SsrParams params;
  params.max_child_size = 64;
  params.max_children = 16;
  params.seed = 0x6c6164646572ull;
  params.max_attempts = 40;
  return params;
}

const LadderSpec kDoublingSpecs[] = {
    {.name = "iblt2", .attempt_tag = kTag, .first_d = 1},
    {.name = "cascade", .attempt_tag = kTag, .first_d = 2},
};

LadderSpec EstimatedSpec(size_t clamp_width) {
  return {.name = "estimated",
          .attempt_tag = kTag,
          .shape = LadderShape::kEstimated,
          .clamp_width = clamp_width};
}

TEST(AttemptLadder, KnownDRunsTrialsOnFreshCoins) {
  SsrParams params = LadderParams();
  params.max_attempts = 4;
  std::vector<LadderSpec> specs(std::begin(kDoublingSpecs),
                                std::end(kDoublingSpecs));
  specs.push_back(EstimatedSpec(8));
  specs.push_back(EstimatedSpec(ChildBlobWidth(params.max_child_size)));
  for (const LadderSpec& spec : specs) {
    for (size_t known_d : {size_t{0}, size_t{1}, size_t{6}, size_t{24}}) {
      SCOPED_TRACE(std::string(spec.name) + " d = " + std::to_string(known_d));
      const AttemptLadder ladder(params, known_d, spec);
      ASSERT_EQ(ladder.rungs(), 4);
      const size_t d = std::max<size_t>(known_d, 1);
      for (int trial = 0; trial < ladder.rungs(); ++trial) {
        const Rung rung = ladder.At(trial);
        const uint64_t seed =
            DeriveSeed(params.seed, kTag + static_cast<uint64_t>(trial));
        EXPECT_EQ(rung.trial, trial);
        EXPECT_EQ(rung.d, d);
        EXPECT_EQ(rung.first_d, d);
        EXPECT_EQ(rung.d_hat, std::max<size_t>(DHat(d, params), 1));
        EXPECT_FALSE(rung.carries_d_hat());
        EXPECT_EQ(rung.seed, seed);
        EXPECT_EQ(rung.child_seed, seed);
        EXPECT_FALSE(ladder.KeepsChildCoins(trial));
      }
    }
  }
}

TEST(AttemptLadder, DoublingSsruClimbsFortyRungsToTheClamp) {
  const SsrParams params = LadderParams();
  const size_t clamp = MaxWireDHat(/*key_width=*/8);
  ASSERT_EQ(clamp, size_t{1} << 22);
  for (const LadderSpec& spec : kDoublingSpecs) {
    SCOPED_TRACE(spec.name);
    const AttemptLadder ladder(params, std::nullopt, spec);
    ASSERT_EQ(ladder.rungs(), 40);
    const uint64_t first_seed = DeriveSeed(params.seed, kTag + 1000);
    size_t d = spec.first_d;
    int clamped_at = -1;
    for (int trial = 0; trial < ladder.rungs(); ++trial) {
      const Rung rung = ladder.At(trial);
      EXPECT_EQ(rung.d, d);
      EXPECT_EQ(rung.first_d, spec.first_d);
      EXPECT_EQ(rung.d_hat, std::max<size_t>(DHat(d, params), 1));
      EXPECT_FALSE(rung.carries_d_hat());
      EXPECT_EQ(rung.seed, DeriveSeed(params.seed,
                                      kTag + 1000 +
                                          static_cast<uint64_t>(trial)));
      EXPECT_EQ(rung.child_seed, first_seed);
      EXPECT_EQ(ladder.KeepsChildCoins(trial), trial + 1 < ladder.rungs());
      if (clamped_at < 0 && d == clamp) clamped_at = trial;
      d = std::min(d * 2, clamp);
    }
    // 2^22 is first reached at rung 22 from d = 1 and rung 21 from d = 2,
    // and every later rung repeats it.
    EXPECT_EQ(clamped_at, spec.first_d == 1 ? 22 : 21);
    EXPECT_EQ(ladder.At(39).d, clamp);
  }
}

TEST(AttemptLadder, EstimatedSsruDoublesAlicesDHatToTheClamp) {
  const SsrParams params = LadderParams();
  for (size_t width : {size_t{8}, ChildBlobWidth(params.max_child_size)}) {
    const size_t clamp = MaxWireDHat(width);
    for (uint64_t estimate : {uint64_t{0}, uint64_t{3}, uint64_t{41},
                              uint64_t{1} << 40}) {
      SCOPED_TRACE("width " + std::to_string(width) + " estimate " +
                   std::to_string(estimate));
      AttemptLadder alice(params, std::nullopt, EstimatedSpec(width));
      const AttemptLadder bob(params, std::nullopt, EstimatedSpec(width));
      alice.TakeEstimate(estimate);
      ASSERT_EQ(alice.rungs(), params.max_attempts);
      ASSERT_EQ(bob.rungs(), params.max_attempts);
      size_t d_hat = std::min<size_t>(
          std::max<size_t>(static_cast<size_t>(params.estimate_slack *
                                               static_cast<double>(estimate)) /
                               2,
                           2),
          clamp);
      int clamped_at = -1;
      for (int trial = 0; trial < alice.rungs(); ++trial) {
        const uint64_t seed =
            DeriveSeed(params.seed, kTag + static_cast<uint64_t>(trial));
        const AttemptLadder* const halves[] = {&alice, &bob};
        for (const AttemptLadder* ladder : halves) {
          const Rung rung = ladder->At(trial);
          EXPECT_EQ(rung.d, 0u);
          EXPECT_EQ(rung.first_d, 0u);
          EXPECT_TRUE(rung.carries_d_hat());
          EXPECT_EQ(rung.seed, seed);
          EXPECT_EQ(rung.child_seed, seed);
          EXPECT_FALSE(ladder->KeepsChildCoins(trial));
        }
        // Bob's d-hat is Alice's prefix, read by GetDHat.
        EXPECT_EQ(bob.At(trial).d_hat, 0u);
        EXPECT_EQ(alice.At(trial).d_hat, d_hat);
        if (clamped_at < 0 && d_hat == clamp) clamped_at = trial;
        d_hat = std::min(d_hat * 2, clamp);
      }
      EXPECT_GE(clamped_at, 0);
      if (estimate == 0) {
        // From the floor of 2: 2^22 at rung 21 for 8-byte keys; naive's
        // blobs (h = 64, 532 bytes a cell with the header) stop at
        // 2^30 / (5 * 532) = 403,662, first reached at rung 18.
        EXPECT_EQ(clamped_at, width == 8 ? 21 : 18);
      }
    }
    if (width != 8) {
      EXPECT_EQ(clamp, 403662u);
    }
  }
}

TEST(AttemptLadder, DHatPrefixRoundTripsAndIsCheckedAtTheClamp) {
  const SsrParams params = LadderParams();
  for (size_t width : {size_t{8}, ChildBlobWidth(params.max_child_size)}) {
    AttemptLadder alice(params, std::nullopt, EstimatedSpec(width));
    const AttemptLadder bob(params, std::nullopt, EstimatedSpec(width));
    alice.TakeEstimate(uint64_t{1} << 40);
    const Rung sent = alice.At(3);
    ByteWriter writer;
    alice.PutDHat(sent, &writer);
    const std::vector<uint8_t> bytes = writer.Take();
    ByteReader reader(bytes);
    Rung got = bob.At(3);
    ASSERT_TRUE(bob.GetDHat(&reader, &got));
    EXPECT_EQ(got.d_hat, sent.d_hat);
    EXPECT_EQ(got.d_hat, MaxWireDHat(width));
    for (uint64_t wire : {uint64_t{0}, uint64_t{MaxWireDHat(width)} + 1}) {
      ByteWriter bad;
      bad.PutVarint(wire);
      const std::vector<uint8_t> bad_bytes = bad.Take();
      ByteReader bad_reader(bad_bytes);
      Rung rung = bob.At(0);
      EXPECT_FALSE(bob.GetDHat(&bad_reader, &rung)) << wire;
    }
  }
  // A rung with a known d carries no prefix: nothing is written or read.
  const AttemptLadder known(params, size_t{5}, EstimatedSpec(8));
  ByteWriter writer;
  known.PutDHat(known.At(0), &writer);
  EXPECT_TRUE(writer.bytes().empty());
  ByteReader empty(writer.bytes());
  Rung rung = known.At(0);
  EXPECT_TRUE(known.GetDHat(&empty, &rung));
  EXPECT_EQ(rung.d_hat, 5u);
}

TEST(AttemptLadder, ExhaustedTextNamesTheProtocolAndTheLastFailure) {
  SsrParams params = LadderParams();
  const Status last = DecodeFailure("peel stalled");
  EXPECT_EQ(AttemptLadder(params, size_t{3}, kDoublingSpecs[0])
                .Exhausted(last)
                .ToString(),
            "EXHAUSTED: iblt2 (SSRK) failed: DECODE_FAILURE: peel stalled");
  EXPECT_EQ(AttemptLadder(params, std::nullopt, kDoublingSpecs[1])
                .Exhausted(last)
                .ToString(),
            "EXHAUSTED: cascade (SSRU) failed: DECODE_FAILURE: peel stalled");
  EXPECT_EQ(AttemptLadder(params, std::nullopt, EstimatedSpec(8))
                .Exhausted(last)
                .ToString(),
            "EXHAUSTED: estimated failed: DECODE_FAILURE: peel stalled");
  params.max_attempts = 0;
  const AttemptLadder empty(params, size_t{3}, EstimatedSpec(8));
  EXPECT_EQ(empty.rungs(), 0);
  EXPECT_EQ(empty.Exhausted(Status::Ok()).ToString(),
            "EXHAUSTED: estimated failed: DECODE_FAILURE: no attempts made");
}

}  // namespace
}  // namespace setrec
