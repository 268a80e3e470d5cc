// Shard-count invariance and cross-shard races for ShardedSyncService.
//
// The load-bearing property (inherited from PR 3/4 and now asserted across
// shard counts): a session's transcript is a function of (spec, seeds)
// only. Cached Alice messages are byte-identical to built ones, parsed-
// table memos are copies of identical parses, and shards share nothing
// else — so the same workload run at shards ∈ {1, 2, 4} must produce
// bit-identical per-session transcripts (witnessed by transcript hashes),
// statuses, and recoveries, all equal to the plain single-threaded
// SyncService ground truth.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/workload.h"
#include "hashing/random.h"
#include "iblt/iblt.h"
#include "service/sharded_service.h"
#include "service/shared_cache.h"
#include "service/sync_service.h"

namespace setrec {
namespace {

struct SessionInput {
  SessionSpec spec;
  SetOfSets expected_alice;
};

/// A mixed workload: every fourth session reconciles against one shared
/// (registered) server set under shared coins — the cross-shard
/// memoization + build-lease path — and the rest carry independent random
/// workloads over all four protocols × SSRK/SSRU.
std::vector<SessionInput> MakeMixedWorkload(
    int sessions, const std::shared_ptr<const SetOfSets>& server_set,
    uint64_t seed) {
  Rng rng(seed);
  std::vector<SessionInput> inputs;
  inputs.reserve(static_cast<size_t>(sessions));
  for (int i = 0; i < sessions; ++i) {
    SessionInput input;
    input.spec.label = "inv" + std::to_string(i);
    input.spec.protocol = static_cast<SsrProtocolKind>(rng.NextU64() % 4);
    if (i % 4 == 0) {
      SetOfSets bob = *server_set;
      size_t victim = rng.NextU64() % bob.size();
      if (bob[victim].size() > 1) bob[victim].pop_back();
      bob[rng.NextU64() % bob.size()].push_back((1ull << 41) +
                                                (rng.NextU64() & 0xffff));
      bob = Canonicalize(std::move(bob));
      input.spec.params.max_child_size = 14;
      input.spec.params.max_children = 22;
      input.spec.params.seed = 9000;  // Shared coins: enables memoization.
      input.spec.alice = server_set;
      input.spec.bob = std::make_shared<SetOfSets>(std::move(bob));
      input.spec.known_d = 6;
      input.expected_alice = *server_set;
    } else {
      SsrWorkloadSpec spec;
      spec.num_children = 6 + rng.NextU64() % 10;
      spec.child_size = 4 + rng.NextU64() % 6;
      spec.changes = 1 + rng.NextU64() % 3;
      spec.seed = 40'000 + static_cast<uint64_t>(i);
      SsrWorkload w = MakeSsrWorkload(spec);
      input.spec.params.max_child_size = spec.child_size + spec.changes + 2;
      input.spec.params.max_children = spec.num_children + spec.changes;
      input.spec.params.seed = 50'000 + static_cast<uint64_t>(i);
      input.spec.known_d = (i % 2 == 0)
                               ? std::optional<size_t>(w.applied_changes)
                               : std::nullopt;
      input.spec.alice = std::make_shared<SetOfSets>(w.alice);
      input.spec.bob = std::make_shared<SetOfSets>(w.bob);
      input.expected_alice = w.alice;
    }
    inputs.push_back(std::move(input));
  }
  return inputs;
}

struct Observed {
  Status status;
  uint64_t transcript_hash = 0;
  SetOfSets recovered;
};

std::map<std::string, Observed> RunSharded(
    const std::vector<SessionInput>& inputs,
    const std::shared_ptr<const SetOfSets>& server_set, size_t shards) {
  ShardedSyncServiceOptions options;
  options.shards = shards;
  options.service.hash_transcripts = true;
  ShardedSyncService service(options);
  service.RegisterSharedSet(server_set);
  for (const SessionInput& input : inputs) {
    service.Submit(input.spec);  // Copy; the spec is reused across runs.
  }
  service.RunToCompletion();
  std::map<std::string, Observed> by_label;
  for (SessionResult& result : service.TakeResults()) {
    Observed observed;
    observed.status = result.status;
    observed.transcript_hash = result.transcript_hash;
    observed.recovered = std::move(result.recovered);
    by_label.emplace(result.label, std::move(observed));
  }
  const ServiceStats stats = service.AggregateStats();
  EXPECT_EQ(stats.sessions_submitted, inputs.size());
  EXPECT_EQ(stats.sessions_completed + stats.sessions_failed, inputs.size());
  return by_label;
}

TEST(ShardedServiceTest, ShardCountInvariance) {
  constexpr int kSessions = 240;
  SsrWorkloadSpec shared_spec;
  shared_spec.num_children = 16;
  shared_spec.child_size = 8;
  shared_spec.changes = 3;
  shared_spec.seed = 777;
  auto server_set =
      std::make_shared<SetOfSets>(MakeSsrWorkload(shared_spec).alice);
  std::vector<SessionInput> inputs =
      MakeMixedWorkload(kSessions, server_set, 20260730);

  // Ground truth: the plain single-threaded SyncService.
  SyncServiceOptions base;
  base.hash_transcripts = true;
  SyncService reference(base);
  reference.RegisterSharedSet(server_set);
  for (const SessionInput& input : inputs) reference.Submit(input.spec);
  reference.RunToCompletion();
  std::map<std::string, Observed> truth;
  for (SessionResult& result : reference.TakeResults()) {
    truth.emplace(result.label,
                  Observed{result.status, result.transcript_hash,
                           std::move(result.recovered)});
  }
  ASSERT_EQ(truth.size(), static_cast<size_t>(kSessions));
  for (const SessionInput& input : inputs) {
    const Observed& want = truth.at(input.spec.label);
    ASSERT_TRUE(want.status.ok())
        << input.spec.label << ": " << want.status.ToString();
    EXPECT_EQ(want.recovered, Canonicalize(input.expected_alice));
  }

  for (size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    std::map<std::string, Observed> got =
        RunSharded(inputs, server_set, shards);
    ASSERT_EQ(got.size(), truth.size()) << "shards=" << shards;
    for (const auto& [label, want] : truth) {
      auto it = got.find(label);
      ASSERT_NE(it, got.end()) << label << " missing at shards=" << shards;
      EXPECT_EQ(it->second.status.code(), want.status.code())
          << label << " at shards=" << shards;
      EXPECT_EQ(it->second.transcript_hash, want.transcript_hash)
          << label << " transcript diverged at shards=" << shards;
      EXPECT_EQ(it->second.recovered, want.recovered)
          << label << " recovery diverged at shards=" << shards;
    }
  }
}

TEST(ShardedServiceTest, SharedCacheSpansShards) {
  // Many sessions against one registered set under one seed, spread over 4
  // shards: the Alice message is built once SOMEWHERE (per attempt key)
  // and every other session replays it — hits must dwarf misses, and the
  // anti-stampede lease must wake waiters across shards without deadlock.
  constexpr int kSessions = 96;
  SsrWorkloadSpec spec;
  spec.num_children = 20;
  spec.child_size = 8;
  spec.changes = 2;
  spec.seed = 313;
  auto server_set = std::make_shared<SetOfSets>(MakeSsrWorkload(spec).alice);

  ShardedSyncServiceOptions options;
  options.shards = 4;
  ShardedSyncService service(options);
  service.RegisterSharedSet(server_set);
  Rng rng(99);
  for (int i = 0; i < kSessions; ++i) {
    SetOfSets bob = *server_set;
    bob[rng.NextU64() % bob.size()].push_back((uint64_t{1} << 40) + static_cast<uint64_t>(i));
    SessionSpec session;
    session.label = "cache" + std::to_string(i);
    session.protocol = SsrProtocolKind::kIblt2;
    session.params.max_child_size = 12;
    session.params.max_children = 26;
    session.params.seed = 4242;
    session.alice = server_set;
    session.bob = std::make_shared<SetOfSets>(Canonicalize(std::move(bob)));
    session.known_d = 4;
    service.Submit(std::move(session));
  }
  service.RunToCompletion();
  std::vector<SessionResult> results = service.TakeResults();
  ASSERT_EQ(results.size(), static_cast<size_t>(kSessions));
  for (const SessionResult& result : results) {
    EXPECT_TRUE(result.status.ok())
        << result.label << ": " << result.status.ToString();
  }
  const ServiceStats stats = service.AggregateStats();
  EXPECT_GT(stats.cache_hits, stats.cache_misses);
  EXPECT_GT(stats.cache_hits, static_cast<size_t>(kSessions / 2));
}

TEST(ShardedServiceTest, CrossShardDisconnectAndCancelRaces) {
  // Half sessions whose "peers" disconnect at random points, raced from
  // the submitting thread against the shard drivers, with healthy kBoth
  // sessions interleaved. Every session must produce exactly one result:
  // cancelled halves a cancellation status, healthy sessions success.
  constexpr int kHalves = 60;
  constexpr int kHealthy = 40;
  SsrWorkloadSpec spec;
  spec.num_children = 12;
  spec.child_size = 6;
  spec.changes = 2;
  spec.seed = 555;
  auto server_set = std::make_shared<SetOfSets>(MakeSsrWorkload(spec).alice);

  ShardedSyncServiceOptions options;
  options.shards = 4;
  ShardedSyncService service(options);
  service.RegisterSharedSet(server_set);

  std::vector<uint64_t> half_ids;
  for (int i = 0; i < kHalves; ++i) {
    SessionSpec session;
    session.label = "half" + std::to_string(i);
    session.role = SessionRole::kAliceHalf;
    session.protocol = SsrProtocolKind::kNaive;
    session.params.max_child_size = 10;
    session.params.max_children = 16;
    session.params.seed = 808;
    session.alice = server_set;
    session.known_d = 4;  // Alice opens; no peer ever answers.
    half_ids.push_back(service.Submit(std::move(session)));
  }
  Rng rng(321);
  for (int i = 0; i < kHealthy; ++i) {
    SsrWorkloadSpec w_spec;
    w_spec.num_children = 8;
    w_spec.child_size = 5;
    w_spec.changes = 2;
    w_spec.seed = static_cast<uint64_t>(900 + i);
    SsrWorkload w = MakeSsrWorkload(w_spec);
    SessionSpec session;
    session.label = "healthy" + std::to_string(i);
    session.protocol = static_cast<SsrProtocolKind>(rng.NextU64() % 4);
    session.params.max_child_size = w_spec.child_size + 4;
    session.params.max_children = w_spec.num_children + 2;
    session.params.seed = static_cast<uint64_t>(1000 + i);
    session.alice = std::make_shared<SetOfSets>(w.alice);
    session.bob = std::make_shared<SetOfSets>(w.bob);
    session.known_d = w.applied_changes;
    service.Submit(std::move(session));
  }

  // Race the disconnects against the shard drivers mid-flight.
  for (int i = 0; i < kHalves; ++i) {
    if (i % 3 == 0) std::this_thread::yield();
    service.CancelSession(half_ids[static_cast<size_t>(i)],
                          Unavailable("peer disconnected (test)"));
  }
  service.RunToCompletion();

  std::vector<SessionResult> results = service.TakeResults();
  ASSERT_EQ(results.size(), static_cast<size_t>(kHalves + kHealthy));
  size_t healthy_ok = 0;
  size_t halves_failed = 0;
  for (const SessionResult& result : results) {
    if (result.label.rfind("healthy", 0) == 0) {
      EXPECT_TRUE(result.status.ok())
          << result.label << ": " << result.status.ToString();
      ++healthy_ok;
    } else {
      // A cancelled half must fail (it can never complete without a peer).
      EXPECT_FALSE(result.status.ok()) << result.label;
      ++halves_failed;
    }
  }
  EXPECT_EQ(healthy_ok, static_cast<size_t>(kHealthy));
  EXPECT_EQ(halves_failed, static_cast<size_t>(kHalves));
  const ServiceStats stats = service.AggregateStats();
  EXPECT_EQ(stats.sessions_cancelled, static_cast<size_t>(kHalves));
}

// The memo cache never evicts: past SharedServiceCache::kMaxEntries it
// refuses new messages and parsed tables, and keeps what it has.
TEST(SharedServiceCacheTest, StoresPastTheCapAreRefused) {
  SharedServiceCache cache;
  const std::vector<uint8_t> bytes = {1, 2, 3};
  const Iblt table(IbltConfig{});
  constexpr uint64_t kLast = SharedServiceCache::kMaxEntries + 1;
  for (uint64_t key = 1; key <= kLast; ++key) {
    cache.Store(key, bytes);
    cache.StoreTableMemo(key, table, bytes.size());
  }
  EXPECT_NE(cache.Lookup(kLast - 1), nullptr);
  EXPECT_EQ(cache.Lookup(kLast), nullptr);
  EXPECT_NE(cache.FindTableMemo(kLast - 1), nullptr);
  EXPECT_EQ(cache.FindTableMemo(kLast), nullptr);
}

// AggregateStats builds its sum into a fresh zeroed struct each call, so
// re-aggregating an unchanged service must be a no-op — a regression guard
// against accumulating into a cached member. Equality is checked through
// the exposition text, which covers every field (including ones added
// later) without needing an operator==. Also pins the quiescence contract:
// after RunToCompletion the published snapshots (SnapshotStats /
// SnapshotMetrics) have caught up with the live aggregate, and the merged
// session-latency histograms saw every finalized session.
TEST(ShardedServiceTest, RepeatedAggregationIsIdempotent) {
  constexpr int kSessions = 48;
  SsrWorkloadSpec shared_spec;
  shared_spec.num_children = 12;
  shared_spec.child_size = 6;
  shared_spec.seed = 777;
  auto server_set = std::make_shared<const SetOfSets>(
      MakeSsrWorkload(shared_spec).alice);
  const std::vector<SessionInput> inputs =
      MakeMixedWorkload(kSessions, server_set, /*seed=*/31337);

  ShardedSyncServiceOptions options;
  options.shards = 2;
  ShardedSyncService service(options);
  service.RegisterSharedSet(server_set);
  for (const SessionInput& input : inputs) service.Submit(input.spec);
  // Hammer the published snapshots from a foreign thread while the shard
  // threads run — the cross-thread read path TSan must see racing the
  // single-writer live counters.
  std::atomic<bool> stop{false};
  std::thread poller([&] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)service.SnapshotMetrics();
      (void)service.SnapshotStats();
    }
  });
  service.RunToCompletion();
  stop.store(true, std::memory_order_release);
  poller.join();
  (void)service.TakeResults();

  const ServiceStats first = service.AggregateStats();
  const ServiceStats second = service.AggregateStats();
  obs::ExpositionWriter text1, text2;
  AppendServiceExposition(service.SnapshotMetrics(), first, &text1);
  AppendServiceExposition(service.SnapshotMetrics(), second, &text2);
  EXPECT_EQ(text1.text(), text2.text());
  EXPECT_EQ(first.sessions_submitted, static_cast<size_t>(kSessions));
  EXPECT_EQ(first.sessions_completed + first.sessions_failed,
            static_cast<size_t>(kSessions));

  const ServiceStats published = service.SnapshotStats();
  EXPECT_EQ(published.sessions_submitted, first.sessions_submitted);
  EXPECT_EQ(published.sessions_completed, first.sessions_completed);
  EXPECT_EQ(published.sessions_failed, first.sessions_failed);
  EXPECT_EQ(published.total_rounds, first.total_rounds);
  EXPECT_EQ(published.total_bytes, first.total_bytes);
  EXPECT_EQ(published.flushes, first.flushes);

  const obs::MetricRegistry metrics = service.SnapshotMetrics();
  uint64_t latency_count = 0;
  for (size_t k = 0; k < obs::kProtocolKinds; ++k) {
    for (size_t c = 0; c < obs::kWireCodecs; ++c) {
      latency_count += metrics.session_latency[k][c].count();
    }
  }
  EXPECT_EQ(latency_count, first.sessions_completed + first.sessions_failed);
}

}  // namespace
}  // namespace setrec
