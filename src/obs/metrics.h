#ifndef SETREC_OBS_METRICS_H_
#define SETREC_OBS_METRICS_H_

#include <bit>
#include <cstddef>
#include <cstdint>

namespace setrec::obs {

/// Fixed-bucket log-linear histogram (HDR-style), sized for nanosecond
/// latencies but usable for any uint64 value distribution (the planner also
/// records flush occupancy in keys). Layout: values below 8 get exact unit
/// buckets; above that each power-of-two octave is split into 4 sub-buckets,
/// so consecutive bucket bounds differ by at most 25% — quantiles read back
/// from the histogram land within one bucket of the exact sorted-sample
/// answer (pinned by tests/obs_metrics_test.cc). 256 buckets cover the full
/// uint64 range in 2 KiB, so a registry full of histograms is cheap enough
/// to embed per shard.
///
/// Threading: same single-writer discipline as ServiceStats — plain
/// integers, written only by the owning shard's driver thread; cross-thread
/// readers go through the owner's published snapshot (see
/// SyncService::SnapshotPublished), never this live object.
class LatencyHistogram {
 public:
  static constexpr size_t kSubBuckets = 4;  ///< Sub-buckets per octave.
  static constexpr size_t kBuckets = 256;

  /// Bucket index for `v`: exact below 8, then
  /// 8 + (octave-1)*4 + sub-bucket. Allocation-free; a handful of ALU ops.
  static constexpr size_t BucketIndex(uint64_t v) {
    if (v < 8) return static_cast<size_t>(v);
    const int shift = 61 - std::countl_zero(v);  // msb - 2, >= 1.
    const size_t sub = static_cast<size_t>((v >> shift) - 4);
    return 8 + (static_cast<size_t>(shift) - 1) * kSubBuckets + sub;
  }

  /// Inclusive lower bound of bucket `index` (inverse of BucketIndex).
  static constexpr uint64_t BucketLowerBound(size_t index) {
    if (index < 8) return index;
    const size_t octave = (index - 8) / kSubBuckets + 1;
    const size_t sub = (index - 8) % kSubBuckets;
    return (uint64_t{4} + sub) << octave;
  }

  /// Records one sample. Allocation-free; safe inside alloc-free lint
  /// regions.
  void Record(uint64_t v) {
    ++buckets_[BucketIndex(v)];
    ++count_;
    sum_ += v;
    if (v > max_) max_ = v;
  }

  /// Element-wise accumulation of `other` into this histogram (shard merge).
  void Merge(const LatencyHistogram& other);
  void Reset();

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t max() const { return max_; }
  uint64_t bucket(size_t index) const { return buckets_[index]; }

  /// Value at quantile `q` in [0, 1]: the midpoint of the bucket holding the
  /// ceil(q * count)-th sample, clamped to the recorded max. Returns 0 on an
  /// empty histogram.
  uint64_t Quantile(double q) const;
  uint64_t p50() const { return Quantile(0.50); }
  uint64_t p90() const { return Quantile(0.90); }
  uint64_t p99() const { return Quantile(0.99); }
  uint64_t p999() const { return Quantile(0.999); }

 private:
  uint64_t buckets_[kBuckets] = {};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t max_ = 0;
};

/// Label-space dimensions for the per-protocol histograms. The service layer
/// static_asserts kProtocolKinds == kSsrProtocolKindCount (obs sits below
/// service in the layer graph and cannot include protocol headers).
inline constexpr size_t kProtocolKinds = 4;
inline constexpr size_t kWireCodecs = 2;

/// Per-shard metric block for the service layer: written lock-free by the
/// shard's single driver thread (exactly like ServiceStats), merged across
/// shards from published snapshots. All recording is allocation-free.
struct MetricRegistry {
  /// End-to-end session latency (StartSession -> FinalizeSession), labelled
  /// protocol kind x wire codec. Half sessions record here too, under
  /// their protocol.
  LatencyHistogram session_latency[kProtocolKinds][kWireCodecs];
  /// Time between consecutive round boundaries (Send parks) of a session.
  LatencyHistogram round_latency[kProtocolKinds][kWireCodecs];
  /// Planner flush: wall time of one FlushPlanner pass, and its occupancy
  /// (total keys across the batched IBLT ops) in keys, not nanoseconds.
  LatencyHistogram flush_latency;
  LatencyHistogram flush_occupancy;
  /// Build-lease contention in SharedServiceCache: how long a parked session
  /// waited for the lease, and how long holders kept it.
  LatencyHistogram lease_wait;
  LatencyHistogram lease_hold;
  /// Protocol-visible failure counters (cheap, always on).
  size_t decode_failures = 0;
  size_t retry_rounds = 0;

  void Merge(const MetricRegistry& other);
  void Reset();
};

/// Per-pump metric block for the net layer: written only by the pump thread
/// that owns the poll loop, merged from published snapshots.
struct PumpMetrics {
  /// Wall time of the post-poll processing burst (reads, service step,
  /// writes) per poll wakeup.
  LatencyHistogram poll_wake;
  /// Per-connection round trip: last outbound frame write -> next inbound
  /// frame on the same connection.
  LatencyHistogram conn_round_trip;
  /// Wall time AWAY from the poller: Wait return -> next Wait entry.
  /// Unlike poll_wake this records every pass, including timer-only
  /// wakeups with zero ready fds, so a pump stalled in processing is
  /// visible even when no peer is talking (StallWatchdog prints its p99).
  LatencyHistogram away_from_poll;
  /// Ready fds reported per poller wakeup (a count, not nanoseconds; the
  /// log-linear buckets are exact in the small-count range that matters).
  LatencyHistogram ready_per_wakeup;
  /// High-watermark of any connection's pending outbuf bytes (max-gauge).
  size_t outbuf_high_watermark = 0;
  size_t frame_decode_failures = 0;
  size_t stat_requests = 0;
  size_t trace_requests = 0;
  /// Poller Wait calls that returned (readiness, timeout, or wake pipe).
  size_t poll_wakeups = 0;
  /// Connections reaped for never completing a hello in time.
  size_t handshake_timeouts = 0;
  /// Established connections reaped for byte-level silence.
  size_t idle_timeouts = 0;

  void Merge(const PumpMetrics& other);
  void Reset();
};

/// Windowed time series over a shard's cumulative counters: a small ring of
/// delta-encoded 1-second windows (60 by default ≈ one minute of history),
/// from which derived rates (sessions/sec, bytes/sec, decode-failures/min)
/// fall out without ever storing per-event data. Same single-writer
/// discipline as the registry: the driver Advances it against its live
/// counters; foreign readers get the published copy (plain arrays, so the
/// snapshot is a memcpy) and compute rates at their own read time.
class RateRing {
 public:
  static constexpr size_t kWindows = 60;
  static constexpr uint64_t kWindowNs = 1'000'000'000;

  /// Cumulative counter values at one instant (monotone non-decreasing).
  struct Sample {
    uint64_t sessions = 0;
    uint64_t bytes = 0;
    uint64_t decode_failures = 0;
  };

  /// Derived rates over the ring's retained span. Accumulate sums rates
  /// across shards (each shard's traffic is disjoint).
  struct Rates {
    double sessions_per_sec = 0.0;
    double bytes_per_sec = 0.0;
    double decode_failures_per_min = 0.0;
    uint64_t span_ns = 0;  ///< Time the rates are averaged over.

    void Accumulate(const Rates& other) {
      sessions_per_sec += other.sessions_per_sec;
      bytes_per_sec += other.bytes_per_sec;
      decode_failures_per_min += other.decode_failures_per_min;
      if (other.span_ns > span_ns) span_ns = other.span_ns;
    }
  };

  /// Folds the current counter values in at `now_ns`, closing any windows
  /// the clock has passed. The first call sets the baseline. Owner thread
  /// only; allocation-free.
  void Advance(uint64_t now_ns, const Sample& cumulative);

  /// Rates over everything the ring retains, with the open window's age
  /// measured against `now_ns` (so an idle ring decays toward zero as
  /// time passes without traffic). Zero rates before two distinct
  /// instants have been observed.
  Rates SnapshotAt(uint64_t now_ns) const;
  Rates Snapshot() const { return SnapshotAt(last_now_ns_); }

  uint64_t last_advance_ns() const { return last_now_ns_; }

 private:
  struct Window {
    uint64_t sessions = 0;
    uint64_t bytes = 0;
    uint64_t decode_failures = 0;
  };

  Window closed_[kWindows] = {};  ///< Ring of closed per-window deltas.
  size_t next_ = 0;               ///< Next closed_ slot to overwrite.
  size_t count_ = 0;              ///< Closed windows retained (<= kWindows).
  uint64_t window_start_ns_ = 0;  ///< Open window's start; 0 = unstarted.
  uint64_t last_now_ns_ = 0;
  Sample baseline_ = {};          ///< Counter values at the open window start.
  Sample current_ = {};           ///< Latest counter values seen.
};

}  // namespace setrec::obs

#endif  // SETREC_OBS_METRICS_H_
