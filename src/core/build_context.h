#ifndef SETREC_CORE_BUILD_CONTEXT_H_
#define SETREC_CORE_BUILD_CONTEXT_H_

#include <coroutine>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/protocol.h"
#include "core/task.h"
#include "estimator/l0_estimator.h"
#include "estimator/strata_estimator.h"
#include "hashing/random.h"
#include "iblt/iblt.h"
#include "transport/channel.h"
#include "util/status.h"

namespace setrec {

class ProtocolContext;

/// Awaitable returned by ProtocolContext::FlushBuilds(). Under the inline
/// context (blocking Reconcile) every queued op has already executed, so the
/// barrier never suspends; under the service context it parks the session
/// until the cross-session batch planner has applied the queued ops.
struct BuildBarrier {
  ProtocolContext* ctx;

  bool await_ready() const noexcept;
  void await_suspend(std::coroutine_handle<> handle) const;
  void await_resume() const noexcept {}
};

/// Awaitable used by CachedAliceSend to serialize concurrent builders of
/// the same memoized Alice message (anti-stampede request coalescing).
/// await_resume is true when this coroutine acquired the build lease and
/// must build + store + release; false when it parked behind the current
/// builder and was woken — it should re-check the cache and loop.
struct BuildLeaseAwaiter {
  ProtocolContext* ctx;
  uint64_t key;
  bool acquired = false;

  bool await_ready() noexcept;
  void await_suspend(std::coroutine_handle<> handle) const;
  bool await_resume() const noexcept { return acquired; }
};

/// Awaitable returned by ProtocolContext::Send(). The message is already on
/// the channel (the index is fixed at construction); the await is the
/// round boundary: the service steps sessions round-by-round by regaining
/// control here, the inline context continues straight through.
struct SendAwaiter {
  ProtocolContext* ctx;
  size_t index;

  bool await_ready() const noexcept;
  void await_suspend(std::coroutine_handle<> handle) const;
  size_t await_resume() const noexcept { return index; }
};

/// Awaitable returned by ProtocolContext::Receive(): completes once the
/// transcript holds message `index`. A party coroutine awaiting its peer's
/// next message parks here; the message arrives either from the peer half's
/// Send (loopback composition — the context pumps parked receives on every
/// send) or from a remote connection (the driver appends the decoded frame
/// to the channel and pumps). Ready immediately when the message is already
/// in the transcript, so the composed both-parties path never parks under
/// the inline context beyond genuine turn-taking.
struct RecvAwaiter {
  ProtocolContext* ctx;
  const Channel* channel;
  size_t index;

  bool await_ready() const noexcept;
  void await_suspend(std::coroutine_handle<> handle) const;
  const Channel::Message& await_resume() const noexcept {
    return channel->Receive(index);
  }
};

/// The step/resume hook the protocol coroutines run against. One context
/// serves exactly one reconciliation (it may be reused sequentially).
///
/// The base class IS the inline implementation: queued sketch-build ops
/// execute immediately, barriers and round yields never suspend, and the
/// Alice-message cache is disabled — which makes the blocking Reconcile
/// wrappers behave exactly like the pre-coroutine code. The SyncService
/// session context overrides the virtuals to defer build ops into the
/// cross-session batch planner, park the coroutine at barriers and round
/// boundaries, and memoize Alice-side attempt messages across sessions that
/// reconcile the same parent set under the same public coins.
class ProtocolContext {
 public:
  virtual ~ProtocolContext() = default;

  /// True when build ops are deferred to a planner (service mode).
  virtual bool deferred() const { return false; }

  // --- Deferred sketch-build work -------------------------------------
  // Each Queue* op is semantically identical to the direct library call;
  // deferring only changes WHEN it runs (before the next FlushBuilds
  // barrier completes) and lets the planner coalesce ops from many
  // sessions into one Iblt::ApplyOps pass. The key buffers must stay alive
  // until the barrier completes — protocol coroutine locals are, because
  // the frame is suspended, not destroyed. The ops are the tables and
  // estimators a protocol keeps or sends (outer, star and fingerprint
  // tables); the child-IBLT blobs that become outer-table keys are packed
  // inline by AppendChildIbltBlobs (core/encoding.h) and never queue.

  virtual void QueueInsertU64(Iblt* table, const uint64_t* keys, size_t n) {
    table->InsertBatch(keys, n);
  }
  virtual void QueueEraseU64(Iblt* table, const uint64_t* keys, size_t n) {
    table->EraseBatch(keys, n);
  }
  virtual void QueueInsertBytes(Iblt* table, const uint8_t* keys, size_t n) {
    table->InsertBatch(keys, n);
  }
  virtual void QueueEraseBytes(Iblt* table, const uint8_t* keys, size_t n) {
    table->EraseBatch(keys, n);
  }
  virtual void QueueL0Update(L0Estimator* est, const uint64_t* xs, size_t n,
                             int side) {
    est->UpdateBatch(xs, n, side);
  }
  virtual void QueueStrataUpdate(StrataEstimator* est, const uint64_t* xs,
                                 size_t n, int side) {
    est->UpdateBatch(xs, n, side);
  }

  /// Barrier: completes once every op queued above has been applied.
  BuildBarrier FlushBuilds() { return BuildBarrier{this}; }

  /// Sends on the channel immediately and yields the round boundary; the
  /// awaited value is the message index (Channel::Send's return).
  SendAwaiter Send(Channel* channel, Party from, std::vector<uint8_t> payload,
                   std::string label) {
    size_t index = channel->Send(from, std::move(payload), std::move(label));
    OnSend(channel, index);
    return SendAwaiter{this, index};
  }

  /// Awaits message `index` of the transcript (see RecvAwaiter). The
  /// returned reference is valid only until the NEXT message is appended
  /// to the channel (the transcript vector may reallocate) — in practice,
  /// until the receiving party's own next send. Copy out anything needed
  /// longer; do not hold the reference across a Send.
  RecvAwaiter Receive(const Channel* channel, size_t index) {
    return RecvAwaiter{this, channel, index};
  }

  // --- Parked receives ------------------------------------------------
  // The base class owns the waiter list for every context flavor; what
  // differs is WHO resumes the handles. The inline context pumps them
  // synchronously from OnSend (the loopback composition's ping-pong), the
  // service moves ready handles onto its scheduler queues, and stream
  // drivers pump after appending decoded frames to the transcript.

  virtual void ParkOnRecv(const Channel* channel, size_t index,
                          std::coroutine_handle<> handle) {
    recv_waiters_.push_back(RecvWaiter{channel, index, handle});
  }
  /// Pops one parked receive whose message has arrived (null when none).
  std::coroutine_handle<> TakeReadyReceive() {
    for (size_t i = 0; i < recv_waiters_.size(); ++i) {
      if (recv_waiters_[i].channel->rounds() > recv_waiters_[i].index) {
        std::coroutine_handle<> handle = recv_waiters_[i].handle;
        recv_waiters_.erase(recv_waiters_.begin() +
                            static_cast<ptrdiff_t>(i));
        return handle;
      }
    }
    return {};
  }
  /// True when a receive is parked on `channel` exactly at `index` — the
  /// local party is waiting for that transcript slot. The service gates
  /// remote-frame injection with this: it is the remote's turn iff the
  /// local half awaits the next slot (strict half-duplex).
  bool HasRecvWaiterAt(const Channel* channel, size_t index) const {
    for (const RecvWaiter& waiter : recv_waiters_) {
      if (waiter.channel == channel && waiter.index == index) return true;
    }
    return false;
  }
  /// Resumes ready receives until none remain ready. Re-entrant: a resumed
  /// party may Send, which calls OnSend, which may pump again — the waiter
  /// is removed from the list before its resume, so each handle runs once.
  void PumpReceives() {
    while (std::coroutine_handle<> handle = TakeReadyReceive()) {
      handle.resume();
    }
  }
  /// Drops every parked receive without resuming. Call before destroying a
  /// still-parked coroutine (peer disconnect, early error) so no dangling
  /// handle survives in the waiter list.
  void CancelReceives() { recv_waiters_.clear(); }

  // --- Alice-message memoization --------------------------------------
  // A server reconciling one parent set against many clients rebuilds the
  // identical sketch message per session; the service context caches the
  // serialized message keyed by (set identity, attempt parameters).

  /// Stable nonzero identity for a parent set registered with the service;
  /// 0 (the default) means "unknown set — do not cache".
  virtual uint64_t SetIdentity(const void* parent_set) {
    (void)parent_set;
    return 0;
  }
  /// Identity of the PEER's parent set, for the Bob half: Bob derives the
  /// same cache keys Alice used (ProtocolCacheKey feeds TableMemoKey) but
  /// holds no pointer to her set. The service context returns the session's
  /// registered Alice-set identity; remote clients get 0 (no memoization).
  virtual uint64_t PeerSetIdentity() { return 0; }
  virtual const std::vector<uint8_t>* CacheLookup(uint64_t key) {
    (void)key;
    return nullptr;
  }
  virtual void CacheStore(uint64_t key, const std::vector<uint8_t>& bytes) {
    (void)key;
    (void)bytes;
  }
  /// Validation memo for pinned sets: a parent set registered with the
  /// service is scanned by ValidateSetOfSets once per (bounds) key instead
  /// of once per session. Inline mode never memoizes.
  virtual bool CheckValidated(uint64_t key) {
    (void)key;
    return false;
  }
  virtual void MarkValidated(uint64_t key) { (void)key; }

  /// Bob-side counterpart of the Alice-message cache: parses an IBLT from
  /// `reader`, memoizing the parsed table by `key` (0 = plain parse). A
  /// session receiving a replayed cached message gets a bulk copy of the
  /// memoized table instead of a per-cell re-parse of identical bytes; the
  /// reader advances identically either way. `codec` selects the wire
  /// decoding (SsrParams::wire_codec — the cache key must already encode
  /// it) and `lineage` lets the doubling protocols parse delta frames
  /// against their previous attempt's table.
  virtual Result<Iblt> ParseTableMemo(uint64_t key, ByteReader* reader,
                                      const IbltConfig& config,
                                      WireCodec codec = WireCodec::kDense,
                                      const TableLineage& lineage = {}) {
    (void)key;
    return Iblt::DeserializeWith(codec, reader, config, lineage);
  }

  /// Anti-stampede lease around a cache miss: true = caller is now the
  /// builder for `key` (must ReleaseBuildLease when done, success or not);
  /// false = another session is building — the caller will be parked (via
  /// ParkOnLease) and must re-check the cache once resumed. Inline mode has
  /// no concurrency, so it always grants.
  virtual bool TryAcquireBuildLease(uint64_t key) {
    (void)key;
    return true;
  }
  virtual void ReleaseBuildLease(uint64_t key) { (void)key; }
  virtual void ParkOnLease(uint64_t key, std::coroutine_handle<> handle) {
    (void)key;
    (void)handle;
  }

  // --- Pooled decode scratches ----------------------------------------
  // Slot 0 is the "outer" scratch (decode views may be held while slot 1
  // churns through nested child decodes), slot 1 the "child" scratch — the
  // split the set-of-sets protocols already rely on. The service hands all
  // sessions the same pool, which is safe because sessions never suspend
  // between a view-returning decode and the views' last use (the view
  // lifetime rule of iblt.h, restated for steps in src/service/README.md).

  virtual DecodeScratch* Scratch(int slot) = 0;

  // --- Service hooks (public so the awaitables can reach them) ---------

  /// Any queued-but-unapplied ops? (Inline mode: never.)
  virtual bool HasPendingOps() const { return false; }
  /// Parks the coroutine until the planner flushes / the next round step.
  /// Only called when deferred(); the inline context never suspends.
  virtual void ParkOnFlush(std::coroutine_handle<> handle) { (void)handle; }
  virtual void ParkOnRound(std::coroutine_handle<> handle) { (void)handle; }
  /// Hook on every ctx->Send: transports forward the message (the service
  /// hands it to SessionSpec::on_send) and parked receives are woken. The
  /// base behavior pumps synchronously — under the inline context that IS
  /// the loopback scheduler: Alice's send resumes Bob's parked receive
  /// nested (depth ≤ one party switch), Bob runs to his next park or send,
  /// and control unwinds back through the sender. Overrides that defer
  /// resumption (the service) must still collect ready receives.
  virtual void OnSend(Channel* channel, size_t index) {
    (void)channel;
    (void)index;
    PumpReceives();
  }
  /// Observability hooks, fired by the shared trial drivers
  /// (core/split_party.h): a sketch attempt that failed to decode/verify,
  /// and a protocol round restarted with fresh randomness as a result. The
  /// inline context ignores them; the service context counts them into its
  /// per-shard metric block.
  virtual void OnDecodeFailure() {}
  virtual void OnRetryRound() {}

 protected:
  struct RecvWaiter {
    const Channel* channel;
    size_t index;
    std::coroutine_handle<> handle;
  };
  std::vector<RecvWaiter> recv_waiters_;
};

inline bool BuildLeaseAwaiter::await_ready() noexcept {
  acquired = ctx->TryAcquireBuildLease(key);
  return acquired;
}
inline void BuildLeaseAwaiter::await_suspend(
    std::coroutine_handle<> handle) const {
  ctx->ParkOnLease(key, handle);
}
inline bool BuildBarrier::await_ready() const noexcept {
  return !ctx->deferred() || !ctx->HasPendingOps();
}
inline void BuildBarrier::await_suspend(std::coroutine_handle<> handle) const {
  ctx->ParkOnFlush(handle);
}
inline bool SendAwaiter::await_ready() const noexcept {
  return !ctx->deferred();
}
inline void SendAwaiter::await_suspend(std::coroutine_handle<> handle) const {
  ctx->ParkOnRound(handle);
}
inline bool RecvAwaiter::await_ready() const noexcept {
  return channel->rounds() > index;
}
inline void RecvAwaiter::await_suspend(std::coroutine_handle<> handle) const {
  ctx->ParkOnRecv(channel, index, handle);
}

/// The default context for blocking Reconcile calls: the base-class inline
/// behavior plus two locally-owned decode scratches.
class InlineContext : public ProtocolContext {
 public:
  DecodeScratch* Scratch(int slot) override { return &scratches_[slot & 1]; }

 private:
  DecodeScratch scratches_[2];
};

/// Cache key for an Alice attempt message: 0 (uncacheable) when the set has
/// no service identity, otherwise a nonzero mix of the identity and every
/// parameter that shapes the message (protocol tag, bounds, attempt seed).
inline uint64_t ProtocolCacheKey(uint64_t set_id,
                                 std::initializer_list<uint64_t> parts) {
  if (set_id == 0) return 0;
  uint64_t key = Mix64(set_id ^ 0x616c696365736b63ull);  // "alicskc"
  for (uint64_t part : parts) key = Mix64(key ^ part);
  return key | 1;
}

/// Validates `set` against params, memoizing the verdict for sets with a
/// service identity (the scan of a registered server set is paid once per
/// bounds, not once per session). Only positive verdicts are memoized.
Status ValidateSetOfSetsMemo(const SetOfSets& set, const SsrParams& params,
                             ProtocolContext* ctx);

/// Key for ParseTableMemo: the Alice-message cache key of the message the
/// table arrived in, plus the table's index within it (cascade messages
/// carry several). Preserves 0 = uncacheable.
inline uint64_t TableMemoKey(uint64_t message_cache_key, uint64_t index) {
  if (message_cache_key == 0) return 0;
  return Mix64(message_cache_key ^ (0x7461626cull + index)) | 1;  // "tabl"
}

/// Builds (or replays from cache) one Alice attempt message and sends it.
/// `build` is a coroutine lambda `(ByteWriter*) -> Task<Status>` that
/// serializes the full message; it runs only on cache miss. The awaited
/// value is the message index on the channel. Transcripts are identical
/// with and without cache hits: the cached bytes are exactly the bytes the
/// builder produced for the same (set, parameters) pair.
template <typename Builder>
Task<Result<size_t>> CachedAliceSend(ProtocolContext* ctx, Channel* channel,
                                     uint64_t cache_key, std::string label,
                                     Builder& build) {
  bool hold_lease = false;
  if (cache_key != 0) {
    // Hit fast path, with anti-stampede coalescing on miss: the first
    // session to miss becomes the builder; concurrent sessions park until
    // the message is stored, then replay it. If a builder fails before
    // storing, the next waiter takes over the lease.
    for (;;) {
      if (const std::vector<uint8_t>* hit = ctx->CacheLookup(cache_key)) {
        size_t index =
            co_await ctx->Send(channel, Party::kAlice, *hit, std::move(label));
        co_return index;
      }
      if (co_await BuildLeaseAwaiter{ctx, cache_key}) {
        hold_lease = true;
        break;
      }
    }
  }
  ByteWriter writer;
  Status built = co_await build(&writer);
  if (!built.ok()) {
    if (hold_lease) ctx->ReleaseBuildLease(cache_key);
    co_return built;
  }
  std::vector<uint8_t> bytes = writer.Take();
  if (hold_lease) {
    ctx->CacheStore(cache_key, bytes);
    ctx->ReleaseBuildLease(cache_key);
  }
  size_t index = co_await ctx->Send(channel, Party::kAlice, std::move(bytes),
                                    std::move(label));
  co_return index;
}

}  // namespace setrec

#endif  // SETREC_CORE_BUILD_CONTEXT_H_
