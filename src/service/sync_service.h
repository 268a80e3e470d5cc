#ifndef SETREC_SERVICE_SYNC_SERVICE_H_
#define SETREC_SERVICE_SYNC_SERVICE_H_

#include <atomic>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/build_context.h"
#include "core/protocol.h"
#include "core/task.h"
#include "iblt/iblt.h"
#include "obs/clock.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "service/shared_cache.h"
#include "transport/channel.h"
#include "util/mpsc_queue.h"

namespace setrec {

/// The four set-of-sets protocol families a session can run.
enum class SsrProtocolKind { kNaive, kIblt2, kCascade, kMultiRound };
/// Number of SsrProtocolKind values (wire validation, kind sweeps).
inline constexpr int kSsrProtocolKindCount = 4;

const char* SsrProtocolKindName(SsrProtocolKind kind);

/// Factory shared by the service, tests, and benches.
std::unique_ptr<SetsOfSetsProtocol> MakeSsrProtocol(SsrProtocolKind kind,
                                                    const SsrParams& params);

/// Which side(s) of the protocol a session runs locally. kBoth is the
/// loopback shape (both halves composed over one channel). The half roles
/// host exactly one party: the peer's messages arrive from outside through
/// SyncService::DeliverRemote (the src/net/ pump decodes them off a
/// socket), and the local party's sends leave through SessionSpec::on_send
/// (the pump frames them onto the socket). kAliceHalf is the server side
/// of a remote session (Alice is the one-way source); kBobHalf hosts the
/// recovering side.
enum class SessionRole { kBoth, kAliceHalf, kBobHalf };

/// One set-of-sets reconciliation job, driven through the per-party
/// protocol coroutines round-by-round with sketch builds deferred into the
/// cross-session batch planner. A kBoth session runs both parties here
/// (`alice` and `bob` set); a half session (role != kBoth) runs only one
/// party's coroutine, against a remote peer (see SessionRole).
struct SessionSpec {
  std::string label;

  SsrProtocolKind protocol = SsrProtocolKind::kNaive;
  SsrParams params;
  SessionRole role = SessionRole::kBoth;
  /// Parent sets; alice benefits from RegisterSharedSet when many sessions
  /// reconcile against the same server-side set. Half sessions need only
  /// their own party's set (alice for kAliceHalf, bob for kBobHalf).
  std::shared_ptr<const SetOfSets> alice;
  std::shared_ptr<const SetOfSets> bob;
  std::optional<size_t> known_d;

  /// Optional send hook, called on the shard's driving thread with every
  /// locally sent protocol message, in transcript order. kBoth sessions
  /// report the full transcript; half sessions only the local party's
  /// messages — exactly the bytes a remote peer must be shown. The net
  /// pump frames each message straight into the session's connection.
  std::function<void(const Channel::Message&)> on_send;

  /// Client-propagated trace context (from the hello; 0 = untraced). The
  /// shard tags every trace event of this session with it, so the server
  /// half of a traced session is joinable with the client's own spans.
  uint64_t trace_id = 0;
};

/// Outcome of a finished session.
struct SessionResult {
  uint64_t id = 0;
  std::string label;
  Status status;
  /// rounds/bytes from the session channel; attempts from the protocol
  /// (0 for failed sessions, and for Alice half sessions, whose recovery
  /// runs at the remote Bob).
  SsrStats stats;
  /// Bob's recovery (kBoth and Bob half sessions, when
  /// options.keep_recovered).
  SetOfSets recovered;
  /// Order-sensitive hash of the full transcript (sender, label, payload
  /// per message) when options.hash_transcripts — the shard-count
  /// invariance witness. 0 when disabled.
  uint64_t transcript_hash = 0;
};

/// Aggregate service counters. Batch occupancy is the planner's headline:
/// per-session sketch batches rarely cross IbltBatchOptions::
/// sharded_min_keys, coalesced cross-session flushes should.
///
/// In a sharded deployment each shard keeps its own ServiceStats (written
/// only by the shard's thread); ShardedSyncService::AggregateStats() sums
/// them once the shards are quiescent.
struct ServiceStats {
  size_t sessions_submitted = 0;
  size_t sessions_completed = 0;
  size_t sessions_failed = 0;
  size_t total_rounds = 0;
  size_t total_bytes = 0;
  /// Scheduler ticks (Step calls that found work).
  size_t steps = 0;
  /// Coroutine resumptions across all sessions.
  size_t resumes = 0;
  /// Batch planner flushes, and the IBLT keys they coalesced.
  size_t flushes = 0;
  size_t flushed_keys = 0;
  size_t max_flush_keys = 0;
  /// Flushes whose occupancy reached the sharded-batch threshold.
  size_t sharded_flushes = 0;
  /// Deferred estimator update jobs executed.
  size_t estimator_jobs = 0;
  /// Alice-message memoization (registered shared sets only): hits =
  /// messages replayed from the cache, misses = messages actually built
  /// (one per acquired build lease).
  size_t cache_hits = 0;
  size_t cache_misses = 0;
  /// Remote-peer messages offered via DeliverRemote, and sessions
  /// cancelled (peer disconnect) via CancelSession.
  size_t remote_messages = 0;
  size_t sessions_cancelled = 0;
  /// Lease wakes received from OTHER shards through the mailbox.
  size_t cross_shard_lease_wakes = 0;

  double mean_flush_occupancy() const {
    return flushes == 0 ? 0.0
                        : static_cast<double>(flushed_keys) /
                              static_cast<double>(flushes);
  }

  /// Element-wise sum (sharded aggregation; max_flush_keys takes the max).
  void Accumulate(const ServiceStats& other);
};

struct SyncServiceOptions {
  /// Planner flush tuning (sharding threshold + worker cap).
  IbltBatchOptions batch;
  /// Admission window: sessions resident at once; the rest wait in the
  /// backlog. Large windows maximize planner occupancy, small ones bound
  /// memory (and, on one core, working-set thrash). 0 = unbounded.
  size_t max_inflight = 8192;
  /// Keep recovered sets in SessionResult (benches turn this off).
  bool keep_recovered = true;
  /// Record SessionResult::transcript_hash (the shard-invariance witness;
  /// costs one pass over each finished transcript).
  bool hash_transcripts = false;
  /// Latency instrumentation (src/obs/): session/round/flush/lease
  /// histograms recorded along the scheduling paths. Off skips every clock
  /// read (the bench A/B overhead knob); the cheap decode/retry counters
  /// stay on either way.
  bool metrics = true;
  /// Slow-session tracing: a session whose end-to-end latency reaches this
  /// threshold dumps its span tree to stderr, once. 0 disables the slow
  /// dump (the net pump may still arm trace capture for TRACE? — see
  /// SessionTracer::EnableCapture). Whichever arms the tracer, the shard's
  /// ring holds obs::kTraceRingCapacity events.
  uint64_t trace_slow_ns = 0;
};

/// Appends the service-layer exposition — the metric registry's histograms
/// labelled with protocol/codec names plus every ServiceStats counter — to
/// a `# setrec-metrics` text block (obs/export.h). Callers pass merged
/// or per-shard snapshots; the net layer serves the result for `STAT?`
/// (followed by the windowed `rate` lines).
void AppendServiceExposition(const obs::MetricRegistry& metrics,
                             const ServiceStats& stats,
                             obs::ExpositionWriter* writer);

/// Order-sensitive 64-bit hash of a transcript (sender byte, label bytes,
/// payload bytes per message) — equal iff the transcripts are bit-identical
/// up to hash collision. Shared by the service and the invariance tests.
uint64_t HashTranscript(const Channel& channel);

/// Drives many concurrent reconciliation sessions as non-blocking state
/// machines stepped round-by-round, instead of one blocking protocol call
/// per client.
///
/// Scheduling model (single-threaded; only planner flushes fan out to
/// worker threads): each Step() tick
///   1. drains the cross-thread mailbox (shard-routed submissions, cancels,
///      lease wakes — see ShardedSyncService),
///   2. admits backlog sessions up to the in-flight window,
///   3. resumes every runnable session until it parks at a round boundary
///      (SendAwaiter) or a sketch-build barrier (BuildBarrier) or finishes,
///   4. repeatedly FLUSHES the batch planner: all queued sketch-build ops —
///      outer- and star-table updates, multiround fingerprint tables,
///      estimator updates, from every parked session — are applied as one
///      coalesced Iblt::ApplyOps pass, and the owning sessions are resumed
///      with their sketches built (the scatter-back). Child-IBLT blobs are
///      not planner ops: a session writes them inline, straight into
///      its packed blobs (AppendChildIbltBlobs). The loop runs until
///      every live session is parked at a round boundary.
///
/// THREAD MODEL: one SyncService is owned by exactly one driving thread
/// (the thread that calls Step — asserted in debug builds). Everything a
/// foreign thread may do goes through the lock-free mailbox (Enqueue*) or
/// the SharedServiceCache. Coroutine frames never migrate between threads
/// (CoroFramePool freelists are thread-local).
///
/// Sessions whose `alice` set was registered via RegisterSharedSet share
/// memoized Alice attempt messages, and all sessions share one pooled pair
/// of decode scratches — per-session warm-decode behavior without
/// per-session scratch churn. See src/service/README.md for the state
/// machine, the planner, and the view-lifetime rules across steps.
class SyncService {
 public:
  /// `cache` is the cross-session memo state; null constructs a private
  /// one (the standalone single-service shape). `shard_id` names this
  /// service in a ShardedSyncService (0 for standalone).
  explicit SyncService(SyncServiceOptions options = {},
                       std::shared_ptr<SharedServiceCache> cache = nullptr,
                       int shard_id = 0);
  ~SyncService();

  SyncService(const SyncService&) = delete;
  SyncService& operator=(const SyncService&) = delete;

  /// Routes build-lease releases whose waiters live on OTHER shards; the
  /// sharded service points this at the target shard's mailbox + wake.
  void set_cross_shard_wake(std::function<void(int shard, uint64_t key)> fn) {
    cross_shard_wake_ = std::move(fn);
  }

  /// Pins `set` for the service's lifetime and enables Alice-message
  /// memoization for sessions whose spec.alice is this exact object.
  uint64_t RegisterSharedSet(std::shared_ptr<const SetOfSets> set);
  /// The set registered as id `id` (ids are dense from 1), or null. This is
  /// how the net layer resolves a client hello's set id to server state.
  std::shared_ptr<const SetOfSets> SharedSetById(uint64_t id) const;

  /// Configures the session-id sequence this service allocates from:
  /// first, first + stride, ... Standalone services keep the default dense
  /// 1, 2, 3, ...; ShardedSyncService gives shard i the residue class
  /// (first = i + 1, stride = N) so ids allocated by any path — the
  /// facade's Submit or a pump thread's direct shard Submit — are unique
  /// across shards and route back via ShardOf. Call before any Submit.
  void ConfigureIds(uint64_t first, uint64_t stride);
  /// Draws the next id of this service's sequence (any thread).
  uint64_t AllocateSessionId();

  /// Enqueues a session; returns its id. Sessions start in Step() order.
  /// Driving thread only (foreign threads use EnqueueSubmit).
  uint64_t Submit(SessionSpec spec);

  /// Injects a message from the remote peer into session `id`'s transcript
  /// (half sessions) and marks its waiting coroutine runnable; the message
  /// is processed by the next Step(). Messages for a submitted-but-not-yet-
  /// admitted session are buffered and delivered at admission. Returns
  /// false for an unknown/finished session. Driving thread only.
  bool DeliverRemote(uint64_t id, Channel::Message message);

  /// Fails a live session (peer disconnect) and reclaims it. Must be
  /// called between Step() calls — sessions are then parked only at round
  /// boundaries or remote receives, never mid-flush. Returns false for an
  /// unknown session. Driving thread only.
  bool CancelSession(uint64_t id, Status reason);

  // --- Cross-thread mailbox (any thread; drained at the top of Step) ----
  // The lock-free handoff between shards: a foreign thread enqueues, then
  // wakes the owning driver through ShardedSyncService. Ids for
  // EnqueueSubmit come from the sharded service's global allocator so they
  // are unique across shards.

  void EnqueueSubmit(uint64_t id, SessionSpec spec);
  void EnqueueCancel(uint64_t id, Status reason);
  void EnqueueLeaseWake(uint64_t key);
  /// True when the mailbox has queued commands (racy hint for drivers).
  bool HasMailboxWork() const { return !mailbox_.Empty(); }

  // --- Load signal (any thread; relaxed reads of driver-side counters) --
  // The admission router's view of how busy this shard is. Both are cheap
  // approximations, not synchronization points: an argmin router only
  // needs the ordering between shards to be roughly right.

  /// Sessions submitted but not yet finalized (backlog + active).
  uint64_t LiveLoad() const {
    return live_load_.load(std::memory_order_relaxed);
  }
  /// Commands pushed to the cross-thread mailbox and not yet drained.
  uint64_t MailboxDepth() const {
    return mailbox_depth_.load(std::memory_order_relaxed);
  }

  /// One scheduler tick; returns true while sessions remain (in flight or
  /// backlogged).
  bool Step();

  /// Steps until idle.
  void RunToCompletion();

  const ServiceStats& stats() const { return stats_; }
  const SyncServiceOptions& options() const { return options_; }
  const std::shared_ptr<SharedServiceCache>& cache() const { return cache_; }
  int shard_id() const { return shard_id_; }

  /// Live per-shard metric block — same single-writer discipline as
  /// stats(): written only by the driving thread; foreign threads must read
  /// the published snapshot instead.
  const obs::MetricRegistry& metrics() const { return metrics_; }
  /// The shard's session tracer. Recording is driving-thread-only;
  /// SnapshotCompleted/DumpRing are safe from any thread.
  obs::SessionTracer& tracer() { return tracer_; }
  const obs::SessionTracer& tracer() const { return tracer_; }

  /// Stamped at the top of every Step by the driving thread — the stall
  /// watchdog's liveness signal (obs/watchdog.h). Any thread may read.
  const obs::Heartbeat& heartbeat() const { return heartbeat_; }

  /// Advances the windowed-rate ring against the live counters and returns
  /// the current rates. Driving thread only (the pump's STAT? handler runs
  /// on it); foreign threads use SnapshotRateRing.
  obs::RateRing::Rates CurrentRates();
  /// Thread-safe copy of the last published rate ring; callers derive
  /// rates at their own read time with SnapshotAt(NowNanos()).
  obs::RateRing SnapshotRateRing() const;

  /// Copies the live stats+metrics into the published slot (driving thread
  /// only). Step() already calls it on a ~50ms throttle and whenever the
  /// shard settles idle, so the published snapshot is at most ~50ms stale
  /// while busy and exact once quiescent.
  void PublishMetrics();
  /// Thread-safe read of the last published copies (any thread; either out
  /// pointer may be null). This is the only way a foreign thread may
  /// observe a running shard's stats/metrics without a data race.
  void SnapshotPublished(obs::MetricRegistry* metrics,
                         ServiceStats* stats) const;

  /// Finished-session results in completion order; moves them out.
  /// Driving thread only (ShardedSyncService harvests via its own loop).
  std::vector<SessionResult> TakeResults();

 private:
  struct Session;
  class SessionContext;

  /// One parked coroutine handle plus its owning session. A split-party
  /// session can have BOTH half coroutines parked at once (Alice at a round
  /// boundary, Bob at a receive), so the scheduler queues carry handles,
  /// not sessions.
  struct ParkedCoro {
    Session* session;
    std::coroutine_handle<> handle;
  };

  struct EstimatorJob {
    L0Estimator* l0 = nullptr;
    StrataEstimator* strata = nullptr;
    const uint64_t* xs = nullptr;
    size_t n = 0;
    int side = 0;
  };

  /// One mailbox command (see Enqueue*).
  struct Command {
    enum class Kind { kSubmit, kCancel, kLeaseWake };
    Kind kind;
    uint64_t id = 0;  // Session id, or the lease key for kLeaseWake.
    SessionSpec spec;
    Status status;
  };

  void DrainMailbox();
  void SubmitPreassigned(uint64_t id, SessionSpec spec);
  void Admit();
  void StartSession(Session* session);
  void ResumeParked(ParkedCoro parked);
  void CheckDone(Session* session);
  /// Moves the session's ready receives (peer message arrived) onto the
  /// scheduler queue.
  void CollectReadyReceives(Session* session);
  void FinalizeSession(Session* session, Result<SsrOutcome> outcome);
  /// Moves local lease waiters for `key` onto the scheduler queue.
  void WakeLease(uint64_t key);
  std::shared_ptr<const SetsOfSetsProtocol> ProtocolFor(
      SsrProtocolKind kind, const SsrParams& params);
  /// Applies every queued planner op as one coalesced pass and resumes the
  /// sessions that were parked on the barrier.
  void FlushPlanner();
  uint64_t IdentityOf(const void* set) const;
  /// One monotonic timestamp when any observability consumer (metrics or
  /// tracer) is armed; 0 when both are off, so hot paths skip clock reads.
  uint64_t ObsNow() const {
    return options_.metrics || tracer_.armed() ? obs::NowNanos() : 0;
  }
  /// Throttled publish (see PublishMetrics); `idle` forces it so quiescent
  /// published data equals the live block.
  void MaybePublishMetrics(bool idle);
  /// The live cumulative counters the rate ring tracks.
  obs::RateRing::Sample CurrentRateSample() const;

  SyncServiceOptions options_;
  ServiceStats stats_;
  obs::MetricRegistry metrics_;
  obs::SessionTracer tracer_;
  obs::RateRing rate_ring_;
  obs::Heartbeat heartbeat_;
  uint64_t last_publish_ns_ = 0;
  bool publish_dirty_ = false;
  mutable std::mutex published_mu_;
  obs::MetricRegistry published_metrics_;
  ServiceStats published_stats_;
  obs::RateRing published_rate_ring_;
  std::shared_ptr<SharedServiceCache> cache_;
  int shard_id_ = 0;
  std::function<void(int shard, uint64_t key)> cross_shard_wake_;

  /// Cross-thread inbox (see Enqueue*). Single consumer: the driving
  /// thread, at the top of Step.
  MpscQueue<Command> mailbox_;
#ifndef NDEBUG
  std::thread::id owner_thread_{};
#endif

  struct PendingSession {
    uint64_t id;
    SessionSpec spec;
  };
  std::deque<PendingSession> backlog_;
  /// Active sessions, swap-removed on completion (slot order is not
  /// meaningful; scheduling order lives in the queues below).
  std::vector<std::unique_ptr<Session>> active_;
  /// Finished Session shells kept for reuse (their channel/transcript
  /// vectors stay warm), bounded by the in-flight window.
  std::vector<std::unique_ptr<Session>> session_pool_;
  /// Shared immutable protocol instances for identical (kind, params).
  std::vector<std::pair<std::pair<SsrProtocolKind, SsrParams>,
                        std::shared_ptr<const SetsOfSetsProtocol>>>
      protocol_cache_;
  /// Sessions admitted but not yet started.
  std::deque<Session*> ready_;
  std::deque<ParkedCoro> round_waiters_;
  std::deque<ParkedCoro> flush_waiters_;
  /// Coroutines whose awaited peer message has arrived (split-party wakes),
  /// drained inside the Step flush loop.
  std::deque<ParkedCoro> recv_ready_;
  /// Coroutines parked behind an in-flight Alice message build (the lease
  /// lives in the SharedServiceCache; the parked handles stay shard-local
  /// because frames never cross threads), and the wake queue drained by
  /// the Step flush loop.
  std::unordered_map<uint64_t, std::deque<ParkedCoro>> lease_waiters_;
  std::deque<ParkedCoro> lease_ready_;
  /// Live sessions by id (remote delivery / cancellation), plus messages
  /// for sessions still in the backlog.
  std::unordered_map<uint64_t, Session*> active_by_id_;
  std::unordered_map<uint64_t, std::vector<Channel::Message>>
      pending_remote_;

  // Batch planner state: deferred IBLT ops + estimator jobs of the current
  // phase, and the reusable hash staging for ApplyOps.
  std::vector<Iblt::ApplyOp> iblt_ops_;
  std::vector<EstimatorJob> estimator_jobs_;
  Iblt::ApplyScratch apply_scratch_;

  // Shared decode scratch pool (slots 0/1; see ProtocolContext::Scratch).
  // Per shard: sessions on one shard share it, threads never do.
  DecodeScratch scratch_pool_[2];

  std::vector<SessionResult> results_;
  /// Strided id sequence (see ConfigureIds); atomic because pump/facade
  /// threads may allocate concurrently.
  std::atomic<uint64_t> next_session_id_{1};
  uint64_t id_stride_ = 1;

  // Load-signal counters (see LiveLoad/MailboxDepth). live_load_ moves
  // only on the driving thread (submit/finalize) but is read cross-thread
  // by the admission router; mailbox_depth_ is bumped by producers and
  // debited by the drain, so it is genuinely multi-writer.
  std::atomic<uint64_t> live_load_{0};
  std::atomic<uint64_t> mailbox_depth_{0};
};

}  // namespace setrec

#endif  // SETREC_SERVICE_SYNC_SERVICE_H_
