#include "net/multi_pump.h"

#include <utility>

#include "obs/trace_text.h"

namespace setrec {

MultiNetPump::MultiNetPump(ShardedSyncService* service,
                           MultiNetPumpOptions options)
    : service_(service), options_(options) {
  options_.pump.reuse_port = true;
  const size_t n = service_->shard_count();
  pumps_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    pumps_.push_back(
        std::make_unique<NetPump>(service_->shard(i), options_.pump));
    // Any pump's STAT? answer covers the WHOLE sharded service, merged
    // from every shard's published snapshot (the handling pump cannot
    // read foreign shards' live blocks), plus every pump's published
    // metric block.
    pumps_.back()->set_stat_exposition([this] {
      obs::ExpositionWriter writer;
      AppendServiceExposition(service_->SnapshotMetrics(),
                              service_->SnapshotStats(), &writer);
      obs::PumpMetrics merged;
      for (const std::unique_ptr<NetPump>& pump : pumps_) {
        merged.Merge(pump->SnapshotPumpMetrics());
      }
      obs::AppendPumpMetrics(merged, writer);
      obs::AppendRates(service_->SnapshotRates(), writer);
      return writer.Take();
    });
    // Likewise TRACE?: one pump's answer carries every shard's recently
    // completed traces (the per-shard stores are mutex-guarded).
    pumps_.back()->set_trace_exposition([this] {
      return obs::FormatTraceExposition(service_->SnapshotCompletedTraces(),
                                        "server");
    });
  }
  // Cross-shard traffic (lease wakes, facade submissions) interrupts the
  // owning pump's poll instead of waiting out its timeout.
  service_->set_shard_wake_hook([this](size_t shard) {
    if (shard < pumps_.size()) pumps_[shard]->Wake();
  });
}

MultiNetPump::~MultiNetPump() {
  Stop();
  service_->set_shard_wake_hook(nullptr);
}

Result<uint16_t> MultiNetPump::ListenTcp(uint16_t port) {
  uint16_t bound = port;
  for (const std::unique_ptr<NetPump>& pump : pumps_) {
    Result<uint16_t> r = pump->ListenTcp(bound);
    if (!r.ok()) return r.status();
    bound = r.value();  // First listener resolves an ephemeral request.
  }
  return bound;
}

size_t MultiNetPump::AdoptConnection(int fd) {
  // Load-aware placement: full scan for the shard with the cheapest load
  // signal (live sessions + undrained mailbox). The scan starts at a
  // rotating offset so equal-load shards round-robin instead of piling
  // onto shard 0; relaxed reads are fine — a one-command skew cannot
  // misroute by more than it already costs. Load, not connection count,
  // is the signal: shards differ in how expensive their sessions are.
  const uint64_t salt = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
  const size_t n = pumps_.size();
  size_t best = static_cast<size_t>(salt % n);
  uint64_t best_load = service_->LoadOf(best).total();
  for (size_t step = 1; step < n && best_load > 0; ++step) {
    const size_t i = static_cast<size_t>((salt + step) % n);
    const uint64_t load = service_->LoadOf(i).total();
    if (load < best_load) {
      best = i;
      best_load = load;
    }
  }
  pumps_[best]->AdoptConnectionAsync(fd);
  return best;
}

void MultiNetPump::Start() {
  if (!threads_.empty()) return;
  stop_.store(false, std::memory_order_release);
  threads_.reserve(pumps_.size());
  for (size_t i = 0; i < pumps_.size(); ++i) {
    threads_.emplace_back([this, i] { PumpLoop(i); });
  }
}

void MultiNetPump::Stop() {
  if (threads_.empty()) return;
  stop_.store(true, std::memory_order_release);
  for (const std::unique_ptr<NetPump>& pump : pumps_) pump->Wake();
  for (std::thread& thread : threads_) thread.join();
  threads_.clear();
  // Final harvest: sessions that finished in the last pass before the
  // stop flag was observed must not be lost.
  for (const std::unique_ptr<NetPump>& pump : pumps_) {
    std::vector<SessionResult> batch = pump->TakeResults();
    if (batch.empty()) continue;
    std::lock_guard<std::mutex> lock(results_mu_);
    for (SessionResult& result : batch) {
      results_.push_back(std::move(result));
    }
    results_seen_.fetch_add(batch.size(), std::memory_order_acq_rel);
  }
}

void MultiNetPump::PumpLoop(size_t index) {
  NetPump* pump = pumps_[index].get();
  while (!stop_.load(std::memory_order_acquire)) {
    pump->PumpOnce(options_.poll_timeout_ms);
    std::vector<SessionResult> batch = pump->TakeResults();
    if (batch.empty()) continue;
    {
      std::lock_guard<std::mutex> lock(results_mu_);
      for (SessionResult& result : batch) {
        results_.push_back(std::move(result));
      }
      results_seen_.fetch_add(batch.size(), std::memory_order_acq_rel);
    }
  }
}

std::vector<SessionResult> MultiNetPump::TakeResults() {
  std::lock_guard<std::mutex> lock(results_mu_);
  return std::move(results_);
}

NetPumpStats MultiNetPump::AggregateStats() const {
  NetPumpStats total;
  for (const std::unique_ptr<NetPump>& pump : pumps_) {
    const NetPumpStats& s = pump->stats();
    total.accepted += s.accepted;
    total.closed += s.closed;
    total.protocol_errors += s.protocol_errors;
    total.disconnects += s.disconnects;
    total.frames_in += s.frames_in;
    total.frames_out += s.frames_out;
    total.bytes_in += s.bytes_in;
    total.bytes_out += s.bytes_out;
    total.backpressure_stalls += s.backpressure_stalls;
  }
  return total;
}

}  // namespace setrec
