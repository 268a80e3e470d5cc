// Heap-allocation budget of a warm loopback service session, per protocol.
// Sessions run the service-mixed shape (one registered server set of 64
// children of 8 elements, clients two edits away, sparse codec, known d
// unless a row says SSRU) inside an AllocationWindow, after a warm-up pass
// has filled the memo cache, the parsed-table memo and the frame and
// session pools. The window covers Submit, every Step and TakeResults, so a
// budget counts everything a session costs the allocator.
//
// Each budget is the count measured when it was last lowered, rounded up:
// naive's when Bob's children were first looked up through a flat
// fingerprint index and his parent assembled in one merge; iblt2's,
// cascade's and multiround's when partner sketches were first decoded
// straight from their blobs (no table parsed per partner or positive blob),
// sparse frames written through one exact Extend, and ApplyDifference
// became one sorted merge into its result vector; multiround's again when
// its partner search stopped copying an estimator per pair and the
// estimator's median stopped allocating, and once more when each pair was
// estimated straight from both estimators' words (no merged estimator per
// attempt, one correction table instead). The iblt2_ssru and cascade_ssru
// rows run the same sessions with d unknown, so each session climbs its
// doubling ladder; their budgets were first set when a ladder's rungs began
// sharing one set of child coins, so each half writes its child
// fingerprints, index and each child config's blobs once per ladder (86.66
// and 113.44 allocations per session before, 86.56 and 113.06 after). Every
// row was lowered by 4.00 when one attempt ladder took over the protocols'
// retry loops: each half used to build its "... failed: " Exhausted prefix
// and a placeholder "no attempts made" failure before its first attempt,
// two strings past libstdc++'s 15-byte inline buffer, and the ladder builds
// that text only when it runs out. A later change may lower a budget; it
// must never raise one.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/alloc_counter.h"
#include "core/workload.h"
#include "hashing/random.h"
#include "service/sync_service.h"

namespace setrec {
namespace {

constexpr size_t kChildren = 64;
constexpr size_t kChildSize = 8;
constexpr size_t kClients = 32;

struct Pool {
  std::shared_ptr<const SetOfSets> server;
  std::vector<std::shared_ptr<const SetOfSets>> clients;
  SetOfSets expected;
  SsrParams params;
};

Pool MakePool() {
  SsrWorkloadSpec spec;
  spec.num_children = kChildren;
  spec.child_size = kChildSize;
  spec.changes = 0;
  spec.seed = 0x616c6c6f63ull;  // "alloc"
  Pool pool;
  pool.server = std::make_shared<const SetOfSets>(MakeSsrWorkload(spec).alice);
  pool.expected = Canonicalize(*pool.server);
  pool.params.max_child_size = kChildSize + 4;
  pool.params.max_children = kChildren + 2;
  pool.params.seed = 0x636f696e73ull;
  pool.params.wire_codec = WireCodec::kSparse;
  Rng rng(0x636c69656e74ull);
  for (size_t i = 0; i < kClients; ++i) {
    // One element dropped from one child, one fresh element (outside the
    // generator's range) added to another.
    SetOfSets bob = *pool.server;
    ChildSet& shrunk = bob[rng.UniformU64(bob.size())];
    shrunk.erase(shrunk.begin() +
                 static_cast<std::ptrdiff_t>(rng.UniformU64(shrunk.size())));
    bob[rng.UniformU64(bob.size())].push_back((1ull << 42) + i);
    pool.clients.push_back(
        std::make_shared<const SetOfSets>(Canonicalize(std::move(bob))));
  }
  return pool;
}

void SubmitAll(const Pool& pool, SsrProtocolKind kind,
               std::optional<size_t> known_d, SyncService* service) {
  for (const auto& client : pool.clients) {
    SessionSpec spec;
    spec.protocol = kind;
    spec.params = pool.params;
    spec.alice = pool.server;
    spec.bob = client;
    spec.known_d = known_d;
    service->Submit(std::move(spec));
  }
}

/// Heap allocations of one pass of kClients warm sessions of `kind`.
size_t WarmPassAllocations(const Pool& pool, SsrProtocolKind kind,
                           std::optional<size_t> known_d) {
  SyncServiceOptions options;
  options.batch.max_workers = 1;  // Flushes stay on this thread.
  SyncService service(options);
  service.RegisterSharedSet(pool.server);
  SubmitAll(pool, kind, known_d, &service);
  service.RunToCompletion();
  for (const SessionResult& r : service.TakeResults()) {
    EXPECT_TRUE(r.status.ok()) << "warm-up: " << r.status.ToString();
  }

  std::vector<SessionResult> results;
  size_t count = 0;
  {
    AllocationWindow window;
    SubmitAll(pool, kind, known_d, &service);
    service.RunToCompletion();
    results = service.TakeResults();
    count = window.count();
  }
  EXPECT_EQ(results.size(), kClients);
  for (const SessionResult& r : results) {
    EXPECT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(r.recovered, pool.expected);
  }
  return count;
}

struct Budget {
  SsrProtocolKind kind;
  const char* name;
  size_t allocations_per_session;
  /// d for SSRK sessions; nullopt runs SSRU (d unknown, the doubling
  /// ladder).
  std::optional<size_t> known_d = 4;
};

class AllocationBudgetTest : public ::testing::TestWithParam<Budget> {};

TEST_P(AllocationBudgetTest, WarmSessionWithinBudget) {
  const Budget& budget = GetParam();
  const Pool pool = MakePool();
  const size_t count = WarmPassAllocations(pool, budget.kind, budget.known_d);
  const double per_session =
      static_cast<double>(count) / static_cast<double>(kClients);
  std::printf("%s: %.2f allocations per warm session (budget %zu)\n",
              budget.name, per_session, budget.allocations_per_session);
  EXPECT_LE(count, budget.allocations_per_session * kClients)
      << budget.name << ": " << per_session << " allocations per session";
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, AllocationBudgetTest,
    ::testing::Values(Budget{SsrProtocolKind::kNaive, "naive", 77},
                      Budget{SsrProtocolKind::kIblt2, "iblt2", 82},
                      Budget{SsrProtocolKind::kCascade, "cascade", 105},
                      Budget{SsrProtocolKind::kMultiRound, "multiround",
                             157},
                      Budget{SsrProtocolKind::kIblt2, "iblt2_ssru", 83,
                             std::nullopt},
                      Budget{SsrProtocolKind::kCascade, "cascade_ssru", 110,
                             std::nullopt}),
    [](const ::testing::TestParamInfo<Budget>& param_info) {
      return std::string(param_info.param.name);
    });

}  // namespace
}  // namespace setrec
