#ifndef SETREC_OBS_TRACE_H_
#define SETREC_OBS_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace setrec::obs {

/// Phases a session passes through. Enter/exit pairs of the same phase
/// nest to form the session's span tree. The first five are recorded by a
/// shard's driver; the last four are client-side (stream_party) so a
/// traced session's two halves decompose its wall clock together.
enum class TracePhase : uint8_t {
  kSession = 0,   ///< StartSession -> FinalizeSession (or client wall).
  kRoundWait,     ///< Parked on a round boundary (Send deferred).
  kFlushWait,     ///< Parked on the planner's build barrier.
  kLeaseWait,     ///< Parked on a SharedServiceCache build lease.
  kRecvWait,      ///< Parked waiting for a remote frame / blocking read.
  kConnect,       ///< Client: connect(2) until the socket is up.
  kHello,         ///< Client: writing the session hello frame.
  kSendWait,      ///< Client: blocking write of one outbound frame.
  kCompute,       ///< Client: running protocol code between wire waits.
};

inline constexpr int kTracePhaseCount = 9;

const char* TracePhaseName(TracePhase phase);

/// Ring slots use relaxed atomics on every field so a foreign thread (the
/// stall watchdog) can DumpRing a live shard without a data race; the
/// owning driver is still the only writer, so Record stays a handful of
/// plain stores on x86. A concurrent dump may see a slot mid-update —
/// acceptable for a diagnostic of a stalled shard.
struct TraceEvent {
  std::atomic<uint64_t> session_id{0};  ///< 0 = empty slot.
  std::atomic<uint64_t> trace_id{0};    ///< 0 = untraced session.
  std::atomic<uint64_t> ns{0};          ///< NowNanos() at record time.
  std::atomic<uint8_t> phase{0};
  std::atomic<bool> enter{false};
};

/// One finished session's gathered events, kept for the TRACE? admin frame.
struct CompletedTraceEvent {
  uint64_t ns = 0;
  TracePhase phase = TracePhase::kSession;
  bool enter = false;
};

struct CompletedTrace {
  uint64_t trace_id = 0;    ///< 0 only for slow untraced sessions.
  uint64_t session_id = 0;
  uint64_t latency_ns = 0;
  bool slow = false;        ///< Crossed the slow-session threshold.
  std::string label;
  std::vector<CompletedTraceEvent> events;
};

/// Trace-event slots in a shard's ring and in a client probe's. When the
/// ring is full, each new event overwrites the oldest.
inline constexpr size_t kTraceRingCapacity = 4096;

/// Per-shard fixed-capacity ring of trace events, written by the shard's
/// single driver thread. Recording is a store into a preallocated slot —
/// zero heap allocations (pinned by tests/obs_trace_test.cc with the
/// operator-new counter). When a session finishes, OnSessionEnd gathers
/// its surviving events once (blanking them so a duplicate end is silent):
/// a slow session dumps its span tree to `out`, and a traced or slow one
/// is retained in a small bounded store that TRACE? serves.
class SessionTracer {
 public:
  /// Allocates the ring (the only allocation the tracer's hot path ever
  /// depends on) and arms the slow-session threshold; capacity 0 or
  /// slow_ns 0 leaves the slow dump disabled.
  void Configure(size_t capacity, uint64_t slow_ns);

  /// Arms trace capture for the TRACE? endpoint: sessions carrying a
  /// nonzero trace id (and slow sessions) are retained in the completed
  /// store even when no slow threshold is set. Allocates a ring of
  /// `capacity_if_unconfigured` slots if Configure never ran. Call before
  /// the shard starts driving sessions.
  void EnableCapture(size_t capacity_if_unconfigured);

  /// Slow-session dumping armed (legacy meaning: threshold + ring).
  bool enabled() const { return slow_ns_ > 0 && capacity_ > 0; }
  /// Recording is worthwhile: some consumer (slow dump or capture) exists.
  bool armed() const { return capacity_ > 0 && (slow_ns_ > 0 || capture_); }
  uint64_t slow_ns() const { return slow_ns_; }
  size_t capacity() const { return capacity_; }
  size_t dumps() const { return dumps_; }

  /// Records one phase-boundary event. Callers gate on armed().
  void Record(uint64_t session_id, TracePhase phase, bool enter, uint64_t ns,
              uint64_t trace_id = 0) {
    const size_t at = next_.load(std::memory_order_relaxed);
    TraceEvent& slot = ring_[at];
    slot.session_id.store(session_id, std::memory_order_relaxed);
    slot.trace_id.store(trace_id, std::memory_order_relaxed);
    slot.ns.store(ns, std::memory_order_relaxed);
    slot.phase.store(static_cast<uint8_t>(phase), std::memory_order_relaxed);
    slot.enter.store(enter, std::memory_order_relaxed);
    const size_t next = at + 1;
    next_.store(next == capacity_ ? 0 : next, std::memory_order_relaxed);
  }

  /// Called once per finished session by the driver thread: gathers the
  /// session's surviving ring events (oldest first) and blanks them. If
  /// `latency_ns` crosses the slow threshold, prints the span tree to
  /// `out` (with the trace id when nonzero, so server log lines join with
  /// client traces). If capture is enabled and the session was traced (or
  /// slow), retains a CompletedTrace for TRACE?. `label` is the session's
  /// human-readable tag (protocol/codec or the spec label).
  void OnSessionEnd(uint64_t session_id, uint64_t trace_id,
                    uint64_t latency_ns, const char* label, std::FILE* out);

  /// Thread-safe copy of the recently completed traces, oldest first.
  std::vector<CompletedTrace> SnapshotCompleted() const;

  /// Dumps every surviving ring event (oldest first, nothing blanked) —
  /// the stall watchdog's view of a wedged shard. Safe to call from a
  /// foreign thread while the driver records. Returns events printed.
  size_t DumpRing(std::FILE* out) const;

 private:
  // Completed traces kept for TRACE? before the oldest is dropped.
  static constexpr size_t kMaxCompletedTraces = 32;

  std::unique_ptr<TraceEvent[]> ring_;
  size_t capacity_ = 0;
  std::atomic<size_t> next_{0};
  uint64_t slow_ns_ = 0;
  size_t dumps_ = 0;
  bool capture_ = false;

  mutable std::mutex completed_mu_;
  std::vector<CompletedTrace> completed_;
};

}  // namespace setrec::obs

#endif  // SETREC_OBS_TRACE_H_
