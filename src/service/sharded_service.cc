#include "service/sharded_service.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "obs/clock.h"

namespace setrec {

ShardedSyncService::ShardedSyncService(ShardedSyncServiceOptions options)
    : options_(std::move(options)),
      cache_(std::make_shared<SharedServiceCache>()) {
  size_t n = options_.shards;
  if (n == 0) {
    n = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->service = std::make_unique<SyncService>(
        options_.service, cache_, static_cast<int>(i));
    // Shard i owns the id residue class {i+1, i+1+N, ...}: ids allocated
    // by the facade and by pump threads submitting to a shard directly
    // never collide, and ShardOf(id) recovers the owner.
    shard->service->ConfigureIds(static_cast<uint64_t>(i) + 1, n);
    shards_.push_back(std::move(shard));
  }
  // Lease releases whose waiters live on another shard go through that
  // shard's mailbox + wake (the releasing shard's thread never touches a
  // foreign coroutine).
  for (size_t i = 0; i < n; ++i) {
    shards_[i]->service->set_cross_shard_wake(
        [this](int shard, uint64_t key) {
          shards_[static_cast<size_t>(shard)]->service->EnqueueLeaseWake(key);
          NotifyShard(static_cast<size_t>(shard));
        });
  }
  if (options_.spawn_threads) {
    for (size_t i = 0; i < n; ++i) {
      shards_[i]->thread = std::thread([this, i] { ShardLoop(i); });
    }
  }
}

ShardedSyncService::~ShardedSyncService() {
  stop_.store(true, std::memory_order_release);
  for (const std::unique_ptr<Shard>& shard : shards_) {
    if (shard->thread.joinable()) {
      {
        std::lock_guard<std::mutex> lock(shard->mu);
        shard->wake = true;
      }
      shard->cv.notify_one();
    }
  }
  for (const std::unique_ptr<Shard>& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
}

uint64_t ShardedSyncService::RegisterSharedSet(
    std::shared_ptr<const SetOfSets> set) {
  return cache_->RegisterSharedSet(std::move(set));
}

std::shared_ptr<const SetOfSets> ShardedSyncService::SharedSetById(
    uint64_t id) const {
  return cache_->SharedSetById(id);
}

uint64_t ShardedSyncService::Submit(SessionSpec spec) {
  // Round-robin over shards; the id comes from the target shard's strided
  // allocator, so ShardOf(id) lands back on it.
  const size_t shard = static_cast<size_t>(
      rr_next_.fetch_add(1, std::memory_order_relaxed) % shards_.size());
  const uint64_t id = shards_[shard]->service->AllocateSessionId();
  submitted_.fetch_add(1, std::memory_order_acq_rel);
  shards_[shard]->service->EnqueueSubmit(id, std::move(spec));
  NotifyShard(shard);
  return id;
}

bool ShardedSyncService::CancelSession(uint64_t id, Status reason) {
  if (id == 0) return false;
  const size_t shard = ShardOf(id);
  shards_[shard]->service->EnqueueCancel(id, std::move(reason));
  NotifyShard(shard);
  return true;
}

void ShardedSyncService::NotifyShard(size_t shard) {
  Shard& s = *shards_[shard];
  if (s.thread.joinable()) {
    {
      std::lock_guard<std::mutex> lock(s.mu);
      s.wake = true;
    }
    s.cv.notify_one();
    return;
  }
  // Copy under the lock: set_shard_wake_hook (install at pump start, clear
  // at pump teardown) may race with notifiers on other threads.
  std::function<void(size_t)> hook;
  {
    std::lock_guard<std::mutex> lock(hook_mu_);
    hook = shard_wake_hook_;
  }
  if (hook) hook(shard);
}

void ShardedSyncService::Harvest(size_t index) {
  std::vector<SessionResult> batch = shards_[index]->service->TakeResults();
  if (batch.empty()) return;
  {
    std::lock_guard<std::mutex> lock(results_mu_);
    for (SessionResult& result : batch) {
      results_.push_back(std::move(result));
    }
    finished_.fetch_add(batch.size(), std::memory_order_acq_rel);
  }
  done_cv_.notify_all();
}

void ShardedSyncService::ShardLoop(size_t index) {
  Shard& s = *shards_[index];
  for (;;) {
    // Drain: step until the shard settles — no runnable work left, or only
    // sessions parked on remote input (resumes stop advancing; spinning on
    // those would burn the core the shard owns). A mailbox push between
    // Step's drain and its return re-enters the loop.
    for (;;) {
      const size_t before = s.service->stats().resumes;
      const bool more = s.service->Step();
      Harvest(index);
      if (s.service->HasMailboxWork()) continue;
      if (!more || s.service->stats().resumes == before) break;
    }
    std::unique_lock<std::mutex> lock(s.mu);
    if (!s.wake) {
      if (stop_.load(std::memory_order_acquire)) break;
      s.cv.wait(lock, [&] {
        return s.wake || stop_.load(std::memory_order_acquire);
      });
    }
    if (!s.wake && stop_.load(std::memory_order_acquire)) break;
    s.wake = false;
  }
  // Final sweep so nothing enqueued right at shutdown is lost silently
  // (bounded: sessions still parked on remote input cannot progress and
  // must not spin the shutdown).
  for (;;) {
    const size_t before = s.service->stats().resumes;
    if (!s.service->Step()) break;
    if (s.service->stats().resumes == before &&
        !s.service->HasMailboxWork()) {
      break;
    }
  }
  Harvest(index);
}

void ShardedSyncService::RunToCompletion() {
  if (options_.spawn_threads) {
    std::unique_lock<std::mutex> lock(results_mu_);
    done_cv_.wait(lock, [&] {
      return finished_.load(std::memory_order_acquire) >=
             submitted_.load(std::memory_order_acquire);
    });
    return;
  }
  // External-driver mode fallback: the caller drives every shard inline
  // (useful for deterministic single-threaded tests; never mix with pumps).
  bool more = true;
  while (more) {
    more = false;
    for (size_t i = 0; i < shards_.size(); ++i) {
      SyncService* service = shards_[i]->service.get();
      const size_t before = service->stats().resumes;
      const bool alive = service->Step();
      Harvest(i);
      // Progress = resumed something or has queued commands; sessions
      // parked on remote input that no driver will feed must not spin.
      if (service->HasMailboxWork() ||
          (alive && service->stats().resumes != before)) {
        more = true;
      }
    }
  }
}

std::vector<SessionResult> ShardedSyncService::TakeResults() {
  std::lock_guard<std::mutex> lock(results_mu_);
  return std::move(results_);
}

ServiceStats ShardedSyncService::AggregateStats() const {
  ServiceStats total;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    total.Accumulate(shard->service->stats());
  }
  return total;
}

obs::MetricRegistry ShardedSyncService::SnapshotMetrics() const {
  obs::MetricRegistry total;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    shard->service->SnapshotPublished(&total, nullptr);
  }
  return total;
}

ServiceStats ShardedSyncService::SnapshotStats() const {
  ServiceStats total;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    shard->service->SnapshotPublished(nullptr, &total);
  }
  return total;
}

obs::RateRing::Rates ShardedSyncService::SnapshotRates() const {
  const uint64_t now = obs::NowNanos();
  obs::RateRing::Rates total;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    total.Accumulate(shard->service->SnapshotRateRing().SnapshotAt(now));
  }
  return total;
}

std::vector<obs::CompletedTrace> ShardedSyncService::SnapshotCompletedTraces()
    const {
  std::vector<obs::CompletedTrace> all;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::vector<obs::CompletedTrace> shard_traces =
        shard->service->tracer().SnapshotCompleted();
    for (obs::CompletedTrace& t : shard_traces) all.push_back(std::move(t));
  }
  return all;
}

}  // namespace setrec
