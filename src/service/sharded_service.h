#ifndef SETREC_SERVICE_SHARDED_SERVICE_H_
#define SETREC_SERVICE_SHARDED_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "service/shared_cache.h"
#include "service/sync_service.h"

namespace setrec {

struct ShardedSyncServiceOptions {
  /// Number of service shards; 0 = std::thread::hardware_concurrency().
  size_t shards = 0;
  /// Per-shard scheduling/planner options (each shard gets a copy).
  SyncServiceOptions service;
  /// true: the sharded service owns one driver thread per shard (Submit +
  /// RunToCompletion just work). false: EXTERNAL drivers own the shards —
  /// one pump thread per shard calls shard(i)->Step() itself (the
  /// src/net/ MultiNetPump shape) and harvests results directly.
  bool spawn_threads = true;
};

/// N independent SyncService shards behind one facade: each shard owns its
/// planner, scheduler queues, decode scratch pool and coroutine frames, and
/// is driven by exactly ONE thread; sessions hash to shards by session id.
/// Cross-shard traffic — shard-routed submissions, cancels, and build-lease
/// wakes — travels through each shard's lock-free MPSC mailbox
/// (util/mpsc_queue.h); the only shared mutable state is the
/// striped-mutex SharedServiceCache, whose memo entries are immutable once
/// stored.
///
/// Invariant inherited from PR 3/4 and asserted in
/// tests/sharded_service_test.cc: a session's transcript is a function of
/// (spec, seeds) only — cached Alice messages are byte-identical to built
/// ones — so per-session transcripts and statuses are bit-identical for
/// any shard count.
class ShardedSyncService {
 public:
  explicit ShardedSyncService(ShardedSyncServiceOptions options = {});
  ~ShardedSyncService();

  ShardedSyncService(const ShardedSyncService&) = delete;
  ShardedSyncService& operator=(const ShardedSyncService&) = delete;

  size_t shard_count() const { return shards_.size(); }
  /// The shard a session id routes to (round-robin over dense ids).
  size_t ShardOf(uint64_t session_id) const {
    return static_cast<size_t>((session_id - 1) % shards_.size());
  }
  /// Shard i's service. External drivers (spawn_threads == false) step it
  /// from their own single thread; with owned threads, callers may only
  /// touch its Enqueue* mailbox entry points and (quiescent) stats.
  SyncService* shard(size_t i) { return shards_[i]->service.get(); }
  const SharedServiceCache& cache() const { return *cache_; }

  /// Cheap load signal for shard `i`: in-flight sessions plus undrained
  /// mailbox commands. Any thread; relaxed reads — the admission router
  /// (MultiNetPump) only needs shards ordered roughly right, and a one-
  /// command skew cannot misroute by more than it already costs.
  struct ShardLoad {
    uint64_t live_sessions = 0;
    uint64_t mailbox_depth = 0;
    uint64_t total() const { return live_sessions + mailbox_depth; }
  };
  ShardLoad LoadOf(size_t i) const {
    const SyncService& service = *shards_[i]->service;
    return ShardLoad{service.LiveLoad(), service.MailboxDepth()};
  }

  /// Registers `set` in the shared cache: every shard resolves the same
  /// identity, and Alice-message memoization spans shards.
  uint64_t RegisterSharedSet(std::shared_ptr<const SetOfSets> set);
  std::shared_ptr<const SetOfSets> SharedSetById(uint64_t id) const;

  /// Enqueues a session on its shard (round-robin); returns the
  /// globally-unique id (shard i allocates the residue class i+1 mod N, so
  /// ids depend on shard count — match sessions across shard counts by
  /// label, not id). Any thread. Sessions submitted directly to a shard by
  /// its pump thread use the same per-shard allocator and never collide.
  uint64_t Submit(SessionSpec spec);

  /// Routes a cancel to the owning shard's mailbox. Any thread;
  /// asynchronous — the shard applies it when it next steps. Returns false
  /// only for an id that cannot belong to any shard (0).
  bool CancelSession(uint64_t id, Status reason);

  /// Wakes shard i's driver: owned threads are signalled; external drivers
  /// get the registered wake hook (e.g. a pump's self-pipe).
  void NotifyShard(size_t shard);
  /// External-driver wake hook (MultiNetPump registers its pipes here).
  /// Guarded: install/clear may race with NotifyShard from other threads.
  void set_shard_wake_hook(std::function<void(size_t)> hook) {
    std::lock_guard<std::mutex> lock(hook_mu_);
    shard_wake_hook_ = std::move(hook);
  }

  /// Blocks until every submitted session has a harvested result. Owned
  /// threads: waits on the completion signal. External-driver mode: the
  /// CALLER becomes the driver of every shard (do not mix with pumps).
  void RunToCompletion();

  /// Finished sessions harvested from all shards, in harvest order.
  /// Owned-thread mode only (external drivers harvest from their shard).
  std::vector<SessionResult> TakeResults();

  /// Sum of per-shard stats. Requires quiescent shards (e.g. after
  /// RunToCompletion) — per-shard stats are written lock-free by their
  /// driver threads. Builds the sum into a fresh zeroed struct each call,
  /// so repeated aggregation of an unchanged service is idempotent.
  ServiceStats AggregateStats() const;

  /// Merged metric registry across all shards, read from each shard's
  /// PUBLISHED snapshot (mutex-guarded copy refreshed by the shard's own
  /// driver at step boundaries and forced on idle). Safe to call from any
  /// thread while shards run; at quiescence it equals the live blocks.
  obs::MetricRegistry SnapshotMetrics() const;

  /// Published-snapshot counterpart of AggregateStats: safe while shards
  /// run, converges to AggregateStats at quiescence.
  ServiceStats SnapshotStats() const;

  /// Windowed rates summed across shards, each shard read from its
  /// published rate ring and decayed to the same read instant. Any thread.
  obs::RateRing::Rates SnapshotRates() const;

  /// Recently completed traces (traced or slow sessions) across all
  /// shards, in shard order. Any thread; each shard's completed store is
  /// mutex-guarded.
  std::vector<obs::CompletedTrace> SnapshotCompletedTraces() const;

  size_t submitted() const {
    return submitted_.load(std::memory_order_acquire);
  }
  size_t finished() const { return finished_.load(std::memory_order_acquire); }

 private:
  struct Shard {
    std::unique_ptr<SyncService> service;
    std::thread thread;
    std::mutex mu;
    std::condition_variable cv;
    bool wake = false;
  };

  void ShardLoop(size_t index);
  /// Moves a shard's finished results into the global store and advances
  /// the completion counter. Called by the shard's own driver thread.
  void Harvest(size_t index);

  ShardedSyncServiceOptions options_;
  std::shared_ptr<SharedServiceCache> cache_;
  std::vector<std::unique_ptr<Shard>> shards_;
  mutable std::mutex hook_mu_;
  std::function<void(size_t)> shard_wake_hook_;

  std::atomic<uint64_t> rr_next_{0};
  std::atomic<size_t> submitted_{0};
  std::atomic<size_t> finished_{0};
  std::atomic<bool> stop_{false};

  std::mutex results_mu_;
  std::condition_variable done_cv_;
  std::vector<SessionResult> results_;
};

}  // namespace setrec

#endif  // SETREC_SERVICE_SHARDED_SERVICE_H_
