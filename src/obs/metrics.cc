#include "obs/metrics.h"

namespace setrec::obs {

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ += other.sum_;
  if (other.max_ > max_) max_ = other.max_;
}

void LatencyHistogram::Reset() { *this = LatencyHistogram{}; }

uint64_t LatencyHistogram::Quantile(double q) const {
  if (count_ == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the target sample, 1-based: ceil(q * count), clamped into
  // [1, count] so q=0 reads the smallest sample and q=1 the largest.
  uint64_t target = static_cast<uint64_t>(q * static_cast<double>(count_));
  if (static_cast<double>(target) < q * static_cast<double>(count_)) ++target;
  if (target == 0) target = 1;
  if (target > count_) target = count_;
  uint64_t cum = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    cum += buckets_[i];
    if (cum >= target) {
      const uint64_t lo = BucketLowerBound(i);
      const uint64_t hi =
          i + 1 < kBuckets ? BucketLowerBound(i + 1) : max_ + 1;
      uint64_t mid = lo + (hi - lo) / 2;
      if (mid > max_) mid = max_;
      return mid;
    }
  }
  return max_;
}

void MetricRegistry::Merge(const MetricRegistry& other) {
  for (size_t k = 0; k < kProtocolKinds; ++k) {
    for (size_t c = 0; c < kWireCodecs; ++c) {
      session_latency[k][c].Merge(other.session_latency[k][c]);
      round_latency[k][c].Merge(other.round_latency[k][c]);
    }
  }
  flush_latency.Merge(other.flush_latency);
  flush_occupancy.Merge(other.flush_occupancy);
  lease_wait.Merge(other.lease_wait);
  lease_hold.Merge(other.lease_hold);
  decode_failures += other.decode_failures;
  retry_rounds += other.retry_rounds;
}

void MetricRegistry::Reset() { *this = MetricRegistry{}; }

void PumpMetrics::Merge(const PumpMetrics& other) {
  poll_wake.Merge(other.poll_wake);
  conn_round_trip.Merge(other.conn_round_trip);
  if (other.outbuf_high_watermark > outbuf_high_watermark) {
    outbuf_high_watermark = other.outbuf_high_watermark;
  }
  away_from_poll.Merge(other.away_from_poll);
  ready_per_wakeup.Merge(other.ready_per_wakeup);
  frame_decode_failures += other.frame_decode_failures;
  stat_requests += other.stat_requests;
  trace_requests += other.trace_requests;
  poll_wakeups += other.poll_wakeups;
  handshake_timeouts += other.handshake_timeouts;
  idle_timeouts += other.idle_timeouts;
}

void PumpMetrics::Reset() { *this = PumpMetrics{}; }

void RateRing::Advance(uint64_t now_ns, const Sample& cumulative) {
  if (window_start_ns_ == 0) {
    // First observation: start the open window here. (A zero clock is
    // nudged so "unstarted" stays unambiguous.)
    window_start_ns_ = now_ns != 0 ? now_ns : 1;
    last_now_ns_ = window_start_ns_;
    baseline_ = cumulative;
    current_ = cumulative;
    return;
  }
  current_ = cumulative;
  if (now_ns > last_now_ns_) last_now_ns_ = now_ns;
  if (now_ns <= window_start_ns_) return;
  uint64_t pending = (now_ns - window_start_ns_) / kWindowNs;
  if (pending > kWindows) {
    // Idle gap longer than the whole ring: every retained window will be
    // overwritten anyway, so skip ahead instead of looping.
    window_start_ns_ += (pending - kWindows) * kWindowNs;
    pending = kWindows;
  }
  for (uint64_t i = 0; i < pending; ++i) {
    // The first closed window absorbs the full delta since its baseline
    // (coarse attribution when Advance runs less than once per window);
    // the rest close empty. Totals — and therefore rates — stay exact.
    Window w;
    w.sessions = current_.sessions - baseline_.sessions;
    w.bytes = current_.bytes - baseline_.bytes;
    w.decode_failures = current_.decode_failures - baseline_.decode_failures;
    closed_[next_] = w;
    next_ = (next_ + 1) % kWindows;
    if (count_ < kWindows) ++count_;
    baseline_ = current_;
    window_start_ns_ += kWindowNs;
  }
}

RateRing::Rates RateRing::SnapshotAt(uint64_t now_ns) const {
  Rates r;
  if (window_start_ns_ == 0) return r;
  uint64_t sessions = current_.sessions - baseline_.sessions;
  uint64_t bytes = current_.bytes - baseline_.bytes;
  uint64_t failures = current_.decode_failures - baseline_.decode_failures;
  for (size_t i = 0; i < count_; ++i) {
    sessions += closed_[i].sessions;
    bytes += closed_[i].bytes;
    failures += closed_[i].decode_failures;
  }
  uint64_t open_age =
      now_ns > window_start_ns_ ? now_ns - window_start_ns_ : 0;
  if (open_age > kWindows * kWindowNs) open_age = kWindows * kWindowNs;
  const uint64_t span =
      static_cast<uint64_t>(count_) * kWindowNs + open_age;
  r.span_ns = span;
  if (span == 0) return r;
  const double per_sec = 1e9 / static_cast<double>(span);
  r.sessions_per_sec = static_cast<double>(sessions) * per_sec;
  r.bytes_per_sec = static_cast<double>(bytes) * per_sec;
  r.decode_failures_per_min = static_cast<double>(failures) * per_sec * 60.0;
  return r;
}

}  // namespace setrec::obs
