#include "service/sync_service.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstring>
#include <limits>
#include <mutex>
#include <utility>

#include "core/cascading_protocol.h"
#include "core/iblt_of_iblts.h"
#include "core/multiround_protocol.h"
#include "core/naive_protocol.h"
#include "hashing/random.h"
#include "obs/clock.h"

namespace setrec {

// The obs layer sits below the service and cannot see the protocol enums;
// its histogram axes must track them by hand.
static_assert(obs::kProtocolKinds ==
              static_cast<size_t>(kSsrProtocolKindCount));
static_assert(obs::kWireCodecs == 2);

const char* SsrProtocolKindName(SsrProtocolKind kind) {
  switch (kind) {
    case SsrProtocolKind::kNaive:
      return "naive";
    case SsrProtocolKind::kIblt2:
      return "iblt2";
    case SsrProtocolKind::kCascade:
      return "cascade";
    case SsrProtocolKind::kMultiRound:
      return "multiround";
  }
  return "?";
}

std::unique_ptr<SetsOfSetsProtocol> MakeSsrProtocol(SsrProtocolKind kind,
                                                    const SsrParams& params) {
  switch (kind) {
    case SsrProtocolKind::kNaive:
      return std::make_unique<NaiveProtocol>(params);
    case SsrProtocolKind::kIblt2:
      return std::make_unique<IbltOfIbltsProtocol>(params);
    case SsrProtocolKind::kCascade:
      return std::make_unique<CascadingProtocol>(params);
    case SsrProtocolKind::kMultiRound:
      return std::make_unique<MultiRoundProtocol>(params);
  }
  return nullptr;
}

void ServiceStats::Accumulate(const ServiceStats& other) {
  sessions_submitted += other.sessions_submitted;
  sessions_completed += other.sessions_completed;
  sessions_failed += other.sessions_failed;
  total_rounds += other.total_rounds;
  total_bytes += other.total_bytes;
  steps += other.steps;
  resumes += other.resumes;
  flushes += other.flushes;
  flushed_keys += other.flushed_keys;
  max_flush_keys = std::max(max_flush_keys, other.max_flush_keys);
  sharded_flushes += other.sharded_flushes;
  estimator_jobs += other.estimator_jobs;
  cache_hits += other.cache_hits;
  cache_misses += other.cache_misses;
  remote_messages += other.remote_messages;
  sessions_cancelled += other.sessions_cancelled;
  cross_shard_lease_wakes += other.cross_shard_lease_wakes;
}

uint64_t HashTranscript(const Channel& channel) {
  // Order-sensitive chain over (sender, label, payload); nonzero even for
  // the empty transcript so "hashed" is distinguishable from "disabled".
  uint64_t h = Mix64(0x74727363726970ull);  // "trscrip"
  for (const Channel::Message& m : channel.transcript()) {
    h = Mix64(h ^ static_cast<uint64_t>(m.from));
    h = Mix64(h ^ m.label.size());
    for (char c : m.label) h = Mix64(h ^ static_cast<uint8_t>(c));
    h = Mix64(h ^ m.payload.size());
    size_t i = 0;
    for (; i + 8 <= m.payload.size(); i += 8) {
      uint64_t lane;
      std::memcpy(&lane, m.payload.data() + i, 8);
      h = Mix64(h ^ lane);
    }
    for (; i < m.payload.size(); ++i) h = Mix64(h ^ m.payload[i]);
  }
  return h;
}

/// The per-session ProtocolContext: routes build ops into the service's
/// planner queues, parks the session coroutines at barriers, round
/// boundaries and peer receives, and exposes the shared cache/scratch
/// pools.
class SyncService::SessionContext final : public ProtocolContext {
 public:
  SessionContext() = default;
  void Bind(SyncService* service, Session* session) {
    service_ = service;
    session_ = session;
  }

  bool deferred() const override { return true; }

  void QueueInsertU64(Iblt* table, const uint64_t* keys, size_t n) override {
    QueueIbltOp({table, keys, nullptr, n, +1});
  }
  void QueueEraseU64(Iblt* table, const uint64_t* keys, size_t n) override {
    QueueIbltOp({table, keys, nullptr, n, -1});
  }
  void QueueInsertBytes(Iblt* table, const uint8_t* keys, size_t n) override {
    QueueIbltOp({table, nullptr, keys, n, +1});
  }
  void QueueEraseBytes(Iblt* table, const uint8_t* keys, size_t n) override {
    QueueIbltOp({table, nullptr, keys, n, -1});
  }
  void QueueL0Update(L0Estimator* est, const uint64_t* xs, size_t n,
                     int side) override;
  void QueueStrataUpdate(StrataEstimator* est, const uint64_t* xs, size_t n,
                         int side) override;

  uint64_t SetIdentity(const void* parent_set) override {
    return service_->IdentityOf(parent_set);
  }
  uint64_t PeerSetIdentity() override;
  // Stats semantics: one hit per message replayed from the cache, one miss
  // per message actually built (counted when the build lease is acquired).
  // A lease waiter's first, empty lookup is counted by neither — it
  // resolves as a hit (or a takeover miss) after waking.
  const std::vector<uint8_t>* CacheLookup(uint64_t key) override {
    const std::vector<uint8_t>* hit = service_->cache_->Lookup(key);
    if (hit != nullptr) ++service_->stats_.cache_hits;
    return hit;
  }
  void CacheStore(uint64_t key, const std::vector<uint8_t>& bytes) override {
    service_->cache_->Store(key, bytes);
  }

  DecodeScratch* Scratch(int slot) override {
    return &service_->scratch_pool_[slot & 1];
  }

  bool CheckValidated(uint64_t key) override {
    return service_->cache_->CheckValidated(key);
  }
  void MarkValidated(uint64_t key) override {
    service_->cache_->MarkValidated(key);
  }

  Result<Iblt> ParseTableMemo(uint64_t key, ByteReader* reader,
                              const IbltConfig& config, WireCodec codec,
                              const TableLineage& lineage) override {
    if (key == 0) {
      return Iblt::DeserializeWith(codec, reader, config, lineage);
    }
    if (const SharedServiceCache::TableMemoEntry* memo =
            service_->cache_->FindTableMemo(key)) {
      // Replayed message: identical bytes, so skipping the recorded length
      // lands the reader exactly where a re-parse would. The entry is
      // immutable; the bulk copy happens outside the cache's stripe lock.
      // Codec-safe: the cache key encodes the wire codec, and the memoized
      // table is the fully-applied parse result (delta frames included).
      if (!reader->Skip(memo->consumed)) {
        return ParseError("memoized table: skip overran message");
      }
      return memo->table;
    }
    const size_t before = reader->remaining();
    Result<Iblt> parsed =
        Iblt::DeserializeWith(codec, reader, config, lineage);
    if (parsed.ok()) {
      service_->cache_->StoreTableMemo(key, parsed.value(),
                                       before - reader->remaining());
    }
    return parsed;
  }

  bool HasPendingOps() const override;
  void ParkOnFlush(std::coroutine_handle<> handle) override;
  void ParkOnRound(std::coroutine_handle<> handle) override;
  void OnSend(Channel* channel, size_t index) override;
  bool TryAcquireBuildLease(uint64_t key) override;
  void ReleaseBuildLease(uint64_t key) override;
  void ParkOnLease(uint64_t key, std::coroutine_handle<> handle) override;
  // ParkOnRecv keeps the base behavior (store in the context's waiter
  // list) plus a trace event; the service moves ready waiters onto its
  // scheduler queue from OnSend / DeliverRemote instead of resuming them
  // nested.
  void ParkOnRecv(const Channel* channel, size_t index,
                  std::coroutine_handle<> handle) override;
  void OnDecodeFailure() override { ++service_->metrics_.decode_failures; }
  void OnRetryRound() override { ++service_->metrics_.retry_rounds; }

 private:
  void QueueIbltOp(Iblt::ApplyOp op);

  SyncService* service_ = nullptr;
  Session* session_ = nullptr;
};

/// One in-flight session: its spec, channel (the transcript), protocol
/// coroutine(s) and park state. `ctx` is declared before `task` so the
/// coroutine frame is destroyed first.
struct SyncService::Session {
  uint64_t id = 0;
  size_t slot = 0;  // Index in active_ (kept fresh by swap-removal).
  SessionSpec spec;
  Channel channel;
  std::shared_ptr<const SetsOfSetsProtocol> protocol;
  SessionContext ctx;
  Task<Result<SsrOutcome>> task;
  /// Planner ops queued by this session since the last flush.
  size_t ops_pending = 0;
  /// Observability state (src/obs/): all timestamps are 0 when metrics and
  /// tracing are off, so recording sites can gate on them.
  uint64_t start_ns = 0;       ///< StartSession timestamp.
  uint64_t last_round_ns = 0;  ///< Previous round boundary.
  uint64_t lease_park_ns = 0;  ///< Set while parked on a build lease.
  uint64_t lease_held_ns = 0;  ///< Set while holding a build lease.
  /// Histogram axes, resolved once at start (protocol kind x wire codec).
  uint8_t kind_idx = 0;
  uint8_t codec_idx = 0;
};

namespace {

/// Adapts Alice's half to the session task shape: her half has no outcome
/// payload (the recovery happens at the remote Bob), so a completed server
/// half reports stats off the transcript and an empty recovered set.
Task<Result<SsrOutcome>> RunAliceHalfSession(
    std::shared_ptr<const SetsOfSetsProtocol> protocol, const SetOfSets* alice,
    std::optional<size_t> known_d, Channel* channel, ProtocolContext* ctx) {
  Task<Status> half =
      protocol->ReconcileAsyncAlice(*alice, known_d, channel, ctx);
  half.Start();
  co_await TaskJoin<Status>{&half};
  Status status = half.TakeResult();
  if (!status.ok()) co_return status;
  SsrOutcome outcome;
  outcome.stats = {channel->rounds(), channel->total_bytes(), 0};
  co_return outcome;
}

}  // namespace

void SyncService::SessionContext::QueueIbltOp(Iblt::ApplyOp op) {
  if (op.n == 0) return;
  service_->iblt_ops_.push_back(op);
  ++session_->ops_pending;
}

void SyncService::SessionContext::QueueL0Update(L0Estimator* est,
                                                const uint64_t* xs, size_t n,
                                                int side) {
  if (n == 0) return;
  service_->estimator_jobs_.push_back({est, nullptr, xs, n, side});
  ++session_->ops_pending;
}

void SyncService::SessionContext::QueueStrataUpdate(StrataEstimator* est,
                                                    const uint64_t* xs,
                                                    size_t n, int side) {
  if (n == 0) return;
  service_->estimator_jobs_.push_back({nullptr, est, xs, n, side});
  ++session_->ops_pending;
}

uint64_t SyncService::SessionContext::PeerSetIdentity() {
  // The Bob-side cache keys mirror Alice's, which hash her set identity;
  // only sessions that actually hold a registered Alice set resolve it.
  if (session_->spec.alice == nullptr) return 0;
  return service_->IdentityOf(session_->spec.alice.get());
}

bool SyncService::SessionContext::HasPendingOps() const {
  return session_->ops_pending > 0;
}

void SyncService::SessionContext::ParkOnFlush(std::coroutine_handle<> handle) {
  if (service_->tracer_.armed()) {
    service_->tracer_.Record(session_->id, obs::TracePhase::kFlushWait, true,
                             obs::NowNanos(), session_->spec.trace_id);
  }
  service_->flush_waiters_.push_back(ParkedCoro{session_, handle});
}

void SyncService::SessionContext::ParkOnRound(std::coroutine_handle<> handle) {
  if (const uint64_t now = service_->ObsNow(); now != 0) {
    if (service_->options_.metrics && session_->last_round_ns != 0) {
      service_->metrics_
          .round_latency[session_->kind_idx][session_->codec_idx]
          .Record(now - session_->last_round_ns);
    }
    session_->last_round_ns = now;
    if (service_->tracer_.armed()) {
      service_->tracer_.Record(session_->id, obs::TracePhase::kRoundWait,
                               true, now, session_->spec.trace_id);
    }
  }
  service_->round_waiters_.push_back(ParkedCoro{session_, handle});
}

void SyncService::SessionContext::ParkOnRecv(const Channel* channel,
                                             size_t index,
                                             std::coroutine_handle<> handle) {
  if (service_->tracer_.armed()) {
    service_->tracer_.Record(session_->id, obs::TracePhase::kRecvWait, true,
                             obs::NowNanos(), session_->spec.trace_id);
  }
  ProtocolContext::ParkOnRecv(channel, index, handle);
}

void SyncService::SessionContext::OnSend(Channel* channel, size_t index) {
  if (session_->spec.on_send) session_->spec.on_send(channel->Receive(index));
  // A send may complete the peer half's pending receive (loopback
  // composition); schedule it instead of resuming nested so the Step loop
  // keeps its round-by-round shape.
  service_->CollectReadyReceives(session_);
}

bool SyncService::SessionContext::TryAcquireBuildLease(uint64_t key) {
  const bool acquired = service_->cache_->TryAcquireLease(key);
  if (acquired) {
    ++service_->stats_.cache_misses;
    if (service_->options_.metrics) {
      session_->lease_held_ns = obs::NowNanos();
    }
  }
  return acquired;
}

void SyncService::SessionContext::ReleaseBuildLease(uint64_t key) {
  if (service_->options_.metrics && session_->lease_held_ns != 0) {
    service_->metrics_.lease_hold.Record(obs::NowNanos() -
                                         session_->lease_held_ns);
    session_->lease_held_ns = 0;
  }
  // Wake the waiters through each owning shard's scheduler queue (never
  // inline, never cross-thread): they re-check the cache and either replay
  // the stored message or contend for the freed lease, in park order.
  for (int shard : service_->cache_->ReleaseLease(key)) {
    if (shard == service_->shard_id_) {
      service_->WakeLease(key);
    } else if (service_->cross_shard_wake_) {
      service_->cross_shard_wake_(shard, key);
    }
  }
}

void SyncService::SessionContext::ParkOnLease(uint64_t key,
                                              std::coroutine_handle<> handle) {
  if (const uint64_t now = service_->ObsNow(); now != 0) {
    session_->lease_park_ns = now;
    if (service_->tracer_.armed()) {
      service_->tracer_.Record(session_->id, obs::TracePhase::kLeaseWait,
                               true, now, session_->spec.trace_id);
    }
  }
  service_->lease_waiters_[key].push_back(ParkedCoro{session_, handle});
  if (!service_->cache_->AddLeaseWaiter(key, service_->shard_id_)) {
    // The builder released between the failed acquire and this park; no
    // wake will come. Self-wake so the coroutine re-checks the cache.
    service_->WakeLease(key);
  }
}

SyncService::SyncService(SyncServiceOptions options,
                         std::shared_ptr<SharedServiceCache> cache,
                         int shard_id)
    : options_(std::move(options)),
      cache_(std::move(cache)),
      shard_id_(shard_id) {
  if (cache_ == nullptr) cache_ = std::make_shared<SharedServiceCache>();
  if (options_.trace_slow_ns > 0) {
    tracer_.Configure(obs::kTraceRingCapacity, options_.trace_slow_ns);
  }
}

SyncService::~SyncService() = default;

uint64_t SyncService::RegisterSharedSet(
    std::shared_ptr<const SetOfSets> set) {
  return cache_->RegisterSharedSet(std::move(set));
}

std::shared_ptr<const SetOfSets> SyncService::SharedSetById(
    uint64_t id) const {
  return cache_->SharedSetById(id);
}

uint64_t SyncService::IdentityOf(const void* set) const {
  return cache_->IdentityOf(set);
}

void SyncService::ConfigureIds(uint64_t first, uint64_t stride) {
  assert(stride > 0);
  next_session_id_.store(first, std::memory_order_relaxed);
  id_stride_ = stride;
}

uint64_t SyncService::AllocateSessionId() {
  return next_session_id_.fetch_add(id_stride_, std::memory_order_relaxed);
}

uint64_t SyncService::Submit(SessionSpec spec) {
  const uint64_t id = AllocateSessionId();
  SubmitPreassigned(id, std::move(spec));
  return id;
}

void SyncService::SubmitPreassigned(uint64_t id, SessionSpec spec) {
  switch (spec.role) {
    case SessionRole::kBoth:
      assert(spec.alice != nullptr && spec.bob != nullptr);
      break;
    case SessionRole::kAliceHalf:
      assert(spec.alice != nullptr);
      break;
    case SessionRole::kBobHalf:
      assert(spec.bob != nullptr);
      break;
  }
  ++stats_.sessions_submitted;
  live_load_.fetch_add(1, std::memory_order_relaxed);
  backlog_.push_back(PendingSession{id, std::move(spec)});
}

void SyncService::EnqueueSubmit(uint64_t id, SessionSpec spec) {
  Command cmd;
  cmd.kind = Command::Kind::kSubmit;
  cmd.id = id;
  cmd.spec = std::move(spec);
  mailbox_depth_.fetch_add(1, std::memory_order_relaxed);
  mailbox_.Push(std::move(cmd));
}

void SyncService::EnqueueCancel(uint64_t id, Status reason) {
  Command cmd;
  cmd.kind = Command::Kind::kCancel;
  cmd.id = id;
  cmd.status = std::move(reason);
  mailbox_depth_.fetch_add(1, std::memory_order_relaxed);
  mailbox_.Push(std::move(cmd));
}

void SyncService::EnqueueLeaseWake(uint64_t key) {
  Command cmd;
  cmd.kind = Command::Kind::kLeaseWake;
  cmd.id = key;
  mailbox_depth_.fetch_add(1, std::memory_order_relaxed);
  mailbox_.Push(std::move(cmd));
}

void SyncService::DrainMailbox() {
  const size_t drained = mailbox_.DrainInto([this](Command&& cmd) {
    switch (cmd.kind) {
      case Command::Kind::kSubmit:
        SubmitPreassigned(cmd.id, std::move(cmd.spec));
        break;
      case Command::Kind::kCancel:
        CancelSession(cmd.id, std::move(cmd.status));
        break;
      case Command::Kind::kLeaseWake:
        ++stats_.cross_shard_lease_wakes;
        WakeLease(cmd.id);
        break;
    }
  });
  if (drained > 0) {
    mailbox_depth_.fetch_sub(drained, std::memory_order_relaxed);
  }
}

namespace {

/// The wire party a half session's remote peer speaks as.
Party RemotePartyOf(SessionRole role) {
  return role == SessionRole::kAliceHalf ? Party::kBob : Party::kAlice;
}

/// Whether the REMOTE party sends the protocol's opening message (so one
/// frame may legitimately arrive before the local half has run): Bob opens
/// the SSRU estimator exchange of naive/multiround; Alice opens everything
/// else.
bool RemoteOpens(const SessionSpec& spec) {
  const bool bob_opens =
      !spec.known_d.has_value() &&
      (spec.protocol == SsrProtocolKind::kNaive ||
       spec.protocol == SsrProtocolKind::kMultiRound);
  return spec.role == SessionRole::kAliceHalf ? bob_opens : !bob_opens;
}

}  // namespace

bool SyncService::DeliverRemote(uint64_t id, Channel::Message message) {
  ++stats_.remote_messages;
  auto it = active_by_id_.find(id);
  if (it == active_by_id_.end()) {
    // Not yet admitted: buffer iff the id is still in the backlog. Strict
    // half-duplex means at most ONE remote frame can legitimately precede
    // the session's first resume, and only when the remote party opens
    // the protocol.
    for (const PendingSession& pending : backlog_) {
      if (pending.id != id) continue;
      if (pending.spec.role == SessionRole::kBoth ||
          message.from != RemotePartyOf(pending.spec.role)) {
        return false;
      }
      std::vector<Channel::Message>& buffered = pending_remote_[id];
      if (!buffered.empty() || !RemoteOpens(pending.spec)) return false;
      buffered.push_back(std::move(message));
      return true;
    }
    return false;
  }
  // Started session: an injected frame in the wrong slot would shift every
  // later transcript index and desync the halves, so accept a remote
  // frame only when it is the remote's turn — i.e., the local half is
  // parked on a receive of exactly the next slot. (Wrong CONTENT in the
  // right slot is the protocols' own problem: it fails parsing and aborts
  // only that session.)
  Session* session = it->second;
  if (session->spec.role == SessionRole::kBoth ||
      message.from != RemotePartyOf(session->spec.role) ||
      !session->ctx.HasRecvWaiterAt(&session->channel,
                                    session->channel.rounds())) {
    return false;
  }
  session->channel.Send(message.from, std::move(message.payload),
                        std::move(message.label));
  CollectReadyReceives(session);
  return true;
}

bool SyncService::CancelSession(uint64_t id, Status reason) {
  assert(!reason.ok());
  auto it = active_by_id_.find(id);
  if (it == active_by_id_.end()) {
    // Possibly still in the backlog: drop it there.
    for (auto pending = backlog_.begin(); pending != backlog_.end();
         ++pending) {
      if (pending->id != id) continue;
      SessionResult result;
      result.id = id;
      result.label = std::move(pending->spec.label);
      result.status = std::move(reason);
      ++stats_.sessions_failed;
      ++stats_.sessions_cancelled;
      live_load_.fetch_sub(1, std::memory_order_relaxed);
      results_.push_back(std::move(result));
      backlog_.erase(pending);
      pending_remote_.erase(id);
      return true;
    }
    return false;
  }
  Session* session = it->second;
  // Between Steps a session's coroutines are parked at round boundaries,
  // receives, or — since cross-shard build leases — a lease wait whose
  // release comes from ANOTHER shard in a later Step. Purge all of them so
  // destroying the frames leaves no dangling handle behind (flush queues
  // are still drained within Step; a lease wake for a purged waiter then
  // finds nothing and is a no-op).
  auto drop = [session](std::deque<ParkedCoro>* queue) {
    queue->erase(std::remove_if(queue->begin(), queue->end(),
                                [session](const ParkedCoro& parked) {
                                  return parked.session == session;
                                }),
                 queue->end());
  };
  drop(&round_waiters_);
  drop(&recv_ready_);
  drop(&lease_ready_);
  for (auto waiters = lease_waiters_.begin();
       waiters != lease_waiters_.end();) {
    drop(&waiters->second);
    waiters = waiters->second.empty() ? lease_waiters_.erase(waiters)
                                      : std::next(waiters);
  }
  session->ctx.CancelReceives();
  ++stats_.sessions_cancelled;
  FinalizeSession(session, std::move(reason));
  return true;
}

std::shared_ptr<const SetsOfSetsProtocol> SyncService::ProtocolFor(
    SsrProtocolKind kind, const SsrParams& params) {
  for (const auto& [key, protocol] : protocol_cache_) {
    if (key.first == kind && key.second == params) return protocol;
  }
  std::shared_ptr<const SetsOfSetsProtocol> protocol =
      MakeSsrProtocol(kind, params);
  if (protocol_cache_.size() < 64) {
    protocol_cache_.emplace_back(std::make_pair(kind, params), protocol);
  }
  return protocol;
}

void SyncService::Admit() {
  const size_t limit = options_.max_inflight == 0
                           ? std::numeric_limits<size_t>::max()
                           : options_.max_inflight;
  while (!backlog_.empty() && active_.size() < limit) {
    std::unique_ptr<Session> session;
    if (!session_pool_.empty()) {
      session = std::move(session_pool_.back());
      session_pool_.pop_back();
    } else {
      session = std::make_unique<Session>();
    }
    session->id = backlog_.front().id;
    session->spec = std::move(backlog_.front().spec);
    backlog_.pop_front();
    session->ctx.Bind(this, session.get());
    session->protocol =
        ProtocolFor(session->spec.protocol, session->spec.params);
    Session* raw = session.get();
    raw->slot = active_.size();
    active_.push_back(std::move(session));
    active_by_id_.emplace(raw->id, raw);
    // Remote messages that raced ahead of admission land in the transcript
    // before the session's first resume.
    if (auto pending = pending_remote_.find(raw->id);
        pending != pending_remote_.end()) {
      for (Channel::Message& m : pending->second) {
        raw->channel.Send(m.from, std::move(m.payload), std::move(m.label));
      }
      pending_remote_.erase(pending);
    }
    ready_.push_back(raw);
  }
}

void SyncService::StartSession(Session* session) {
  ++stats_.resumes;
  if (const uint64_t now = ObsNow(); now != 0) {
    session->start_ns = now;
    session->last_round_ns = now;
    session->kind_idx = static_cast<uint8_t>(session->spec.protocol);
    session->codec_idx =
        session->spec.params.wire_codec == WireCodec::kSparse ? 1 : 0;
    if (tracer_.armed()) {
      tracer_.Record(session->id, obs::TracePhase::kSession, true, now,
                     session->spec.trace_id);
    }
  }
  switch (session->spec.role) {
    case SessionRole::kBoth:
      session->task = session->protocol->ReconcileAsync(
          *session->spec.alice, *session->spec.bob, session->spec.known_d,
          &session->channel, &session->ctx);
      break;
    case SessionRole::kAliceHalf:
      session->task = RunAliceHalfSession(
          session->protocol, session->spec.alice.get(),
          session->spec.known_d, &session->channel, &session->ctx);
      break;
    case SessionRole::kBobHalf:
      session->task = session->protocol->ReconcileAsyncBob(
          *session->spec.bob, session->spec.known_d, &session->channel,
          &session->ctx);
      break;
  }
  session->task.Start();
  CheckDone(session);
}

void SyncService::ResumeParked(ParkedCoro parked) {
  ++stats_.resumes;
  parked.handle.resume();
  CheckDone(parked.session);
}

void SyncService::CheckDone(Session* session) {
  if (session->task.Valid() && session->task.Done()) {
    FinalizeSession(session, session->task.TakeResult());
  }
}

void SyncService::CollectReadyReceives(Session* session) {
  while (std::coroutine_handle<> handle = session->ctx.TakeReadyReceive()) {
    recv_ready_.push_back(ParkedCoro{session, handle});
  }
}

void SyncService::WakeLease(uint64_t key) {
  auto it = lease_waiters_.find(key);
  if (it == lease_waiters_.end()) return;
  for (const ParkedCoro& waiter : it->second) {
    lease_ready_.push_back(waiter);
  }
  lease_waiters_.erase(it);
}

void SyncService::FinalizeSession(Session* session,
                                  Result<SsrOutcome> outcome) {
  live_load_.fetch_sub(1, std::memory_order_relaxed);
  SessionResult result;
  result.id = session->id;
  result.label = std::move(session->spec.label);
  if (outcome.ok()) {
    ++stats_.sessions_completed;
    result.status = Status::Ok();
    result.stats = outcome.value().stats;
    if (options_.keep_recovered) {
      result.recovered = std::move(outcome.value().recovered);
    }
  } else {
    ++stats_.sessions_failed;
    result.status = outcome.status();
    result.stats = {session->channel.rounds(),
                    session->channel.total_bytes(), 0};
  }
  if (options_.hash_transcripts) {
    result.transcript_hash = HashTranscript(session->channel);
  }
  stats_.total_rounds += session->channel.rounds();
  stats_.total_bytes += session->channel.total_bytes();
  if (const uint64_t now = ObsNow(); now != 0 && session->start_ns != 0) {
    const uint64_t latency = now - session->start_ns;
    if (options_.metrics) {
      metrics_.session_latency[session->kind_idx][session->codec_idx].Record(
          latency);
    }
    if (tracer_.armed()) {
      tracer_.Record(session->id, obs::TracePhase::kSession, false, now,
                     session->spec.trace_id);
      char label[32];
      std::snprintf(label, sizeof label, "%s/%s",
                    SsrProtocolKindName(session->spec.protocol),
                    session->codec_idx != 0 ? "sparse" : "dense");
      tracer_.OnSessionEnd(session->id, session->spec.trace_id, latency,
                           label, stderr);
    }
  }
  results_.push_back(std::move(result));
  // Swap-remove from the active list; recycle the shell (coroutine frame
  // destroyed by the Task reset, transcript cleared, vector capacity kept).
  active_by_id_.erase(session->id);
  const size_t slot = session->slot;
  std::unique_ptr<Session> finished = std::move(active_[slot]);
  if (slot + 1 != active_.size()) {
    active_[slot] = std::move(active_.back());
    active_[slot]->slot = slot;
  }
  active_.pop_back();
  const size_t pool_cap =
      options_.max_inflight == 0 ? 1024 : options_.max_inflight;
  if (session_pool_.size() < pool_cap) {
    finished->task = Task<Result<SsrOutcome>>();
    finished->protocol = nullptr;
    finished->spec = SessionSpec{};
    finished->channel.Reset();
    finished->ops_pending = 0;
    finished->start_ns = 0;
    finished->last_round_ns = 0;
    finished->lease_park_ns = 0;
    finished->lease_held_ns = 0;
    finished->kind_idx = 0;
    finished->codec_idx = 0;
    session_pool_.push_back(std::move(finished));
  }
}

void SyncService::FlushPlanner() {
  ++stats_.flushes;
  const uint64_t flush_start = options_.metrics ? obs::NowNanos() : 0;
  size_t total_keys = 0;
  for (const Iblt::ApplyOp& op : iblt_ops_) total_keys += op.n;
  stats_.flushed_keys += total_keys;
  if (total_keys > stats_.max_flush_keys) stats_.max_flush_keys = total_keys;
  if (total_keys >= options_.batch.sharded_min_keys) ++stats_.sharded_flushes;

  if (!iblt_ops_.empty()) {
    Iblt::ApplyOps(iblt_ops_.data(), iblt_ops_.size(), options_.batch,
                   &apply_scratch_);
    iblt_ops_.clear();
  }
  for (const EstimatorJob& job : estimator_jobs_) {
    if (job.l0 != nullptr) {
      job.l0->UpdateBatch(job.xs, job.n, job.side);
    } else {
      job.strata->UpdateBatch(job.xs, job.n, job.side);
    }
  }
  stats_.estimator_jobs += estimator_jobs_.size();
  estimator_jobs_.clear();
  if (flush_start != 0) {
    // Latency of the coalesced apply itself; the scatter-back below runs
    // arbitrary protocol code and would swamp the planner signal.
    metrics_.flush_latency.Record(obs::NowNanos() - flush_start);
    metrics_.flush_occupancy.Record(total_keys);
  }

  // Scatter-back: every parked coroutine's sketches are now built; resume
  // them in park order. Resumed coroutines may queue a next build phase
  // (handled by the caller's flush loop) or park at a round boundary.
  std::deque<ParkedCoro> waiters = std::move(flush_waiters_);
  flush_waiters_.clear();
  const bool trace = tracer_.armed();
  for (const ParkedCoro& parked : waiters) {
    parked.session->ops_pending = 0;
    if (trace) {
      tracer_.Record(parked.session->id, obs::TracePhase::kFlushWait, false,
                     obs::NowNanos(), parked.session->spec.trace_id);
    }
    ResumeParked(parked);
  }
}

bool SyncService::Step() {
#ifndef NDEBUG
  // One driving thread per service, forever: coroutine frames recycle
  // through thread-local pools and must never resume on a foreign thread.
  if (owner_thread_ == std::thread::id{}) {
    owner_thread_ = std::this_thread::get_id();
  }
  assert(owner_thread_ == std::this_thread::get_id() &&
         "SyncService stepped from a foreign thread");
#endif
  heartbeat_.Beat(obs::NowNanos());
  DrainMailbox();
  Admit();
  if (active_.empty()) {
    MaybePublishMetrics(/*idle=*/backlog_.empty());
    return !backlog_.empty();
  }
  ++stats_.steps;
  publish_dirty_ = true;

  // Round waiters first (FIFO fairness), then newly admitted sessions.
  // Drain a snapshot: a coroutine that parks at its next round boundary
  // during the drain must wait for the NEXT tick (the one-round-per-tick
  // contract of SendAwaiter), not be resumed again in this one.
  std::deque<ParkedCoro> round_now = std::move(round_waiters_);
  round_waiters_.clear();
  if (tracer_.armed() && !round_now.empty()) {
    const uint64_t now = obs::NowNanos();
    for (const ParkedCoro& parked : round_now) {
      tracer_.Record(parked.session->id, obs::TracePhase::kRoundWait, false,
                     now, parked.session->spec.trace_id);
    }
  }
  while (!round_now.empty()) {
    ParkedCoro parked = round_now.front();
    round_now.pop_front();
    ResumeParked(parked);
  }

  // Drain build phases: each flush applies every queued op across all
  // sessions as one coalesced pass, then resumes the owners, who may queue
  // the next phase; lease waiters wake as the builds they were parked on
  // get stored, and split-party peers wake as the messages they await are
  // sent. As completions free in-flight capacity, backlog sessions are
  // admitted INTO the running tick, so a departing wave's late phases
  // coalesce with the next wave's early ones (no pipeline bubble). When
  // this loop exits, every live coroutine sits at a round boundary or a
  // not-yet-arrived remote receive.
  for (;;) {
    while (!ready_.empty()) {
      Session* session = ready_.front();
      ready_.pop_front();
      StartSession(session);
    }
    while (!recv_ready_.empty()) {
      ParkedCoro parked = recv_ready_.front();
      recv_ready_.pop_front();
      if (tracer_.armed()) {
        tracer_.Record(parked.session->id, obs::TracePhase::kRecvWait, false,
                       obs::NowNanos(), parked.session->spec.trace_id);
      }
      ResumeParked(parked);
    }
    while (!lease_ready_.empty()) {
      ParkedCoro parked = lease_ready_.front();
      lease_ready_.pop_front();
      if (const uint64_t now = ObsNow();
          now != 0 && parked.session->lease_park_ns != 0) {
        if (options_.metrics) {
          metrics_.lease_wait.Record(now - parked.session->lease_park_ns);
        }
        parked.session->lease_park_ns = 0;
        if (tracer_.armed()) {
          tracer_.Record(parked.session->id, obs::TracePhase::kLeaseWait,
                         false, now, parked.session->spec.trace_id);
        }
      }
      ResumeParked(parked);
    }
    if (!flush_waiters_.empty() || !iblt_ops_.empty() ||
        !estimator_jobs_.empty()) {
      FlushPlanner();
      continue;
    }
    Admit();
    if (ready_.empty() && recv_ready_.empty() && lease_ready_.empty()) break;
  }

  MaybePublishMetrics(/*idle=*/active_.empty() && backlog_.empty());
  return !active_.empty() || !backlog_.empty();
}

void SyncService::MaybePublishMetrics(bool idle) {
  if (!options_.metrics || !publish_dirty_) return;
  const uint64_t now = obs::NowNanos();
  // Throttle mid-burst publishes; an idle shard always flushes so the
  // published snapshot converges to the live block at quiescence.
  constexpr uint64_t kPublishIntervalNs = 50'000'000;
  if (!idle && now - last_publish_ns_ < kPublishIntervalNs) return;
  last_publish_ns_ = now;
  publish_dirty_ = false;
  rate_ring_.Advance(now, CurrentRateSample());
  PublishMetrics();
}

obs::RateRing::Sample SyncService::CurrentRateSample() const {
  return obs::RateRing::Sample{
      static_cast<uint64_t>(stats_.sessions_completed),
      static_cast<uint64_t>(stats_.total_bytes),
      static_cast<uint64_t>(metrics_.decode_failures)};
}

obs::RateRing::Rates SyncService::CurrentRates() {
  const uint64_t now = obs::NowNanos();
  rate_ring_.Advance(now, CurrentRateSample());
  return rate_ring_.SnapshotAt(now);
}

obs::RateRing SyncService::SnapshotRateRing() const {
  std::lock_guard<std::mutex> lock(published_mu_);
  return published_rate_ring_;
}

void SyncService::PublishMetrics() {
  std::lock_guard<std::mutex> lock(published_mu_);
  published_metrics_ = metrics_;
  published_stats_ = stats_;
  published_rate_ring_ = rate_ring_;
}

void SyncService::SnapshotPublished(obs::MetricRegistry* metrics,
                                    ServiceStats* stats) const {
  std::lock_guard<std::mutex> lock(published_mu_);
  if (metrics != nullptr) metrics->Merge(published_metrics_);
  if (stats != nullptr) stats->Accumulate(published_stats_);
}

void AppendServiceExposition(const obs::MetricRegistry& metrics,
                             const ServiceStats& stats,
                             obs::ExpositionWriter* writer) {
  static const char* const kKindNames[obs::kProtocolKinds] = {
      SsrProtocolKindName(SsrProtocolKind::kNaive),
      SsrProtocolKindName(SsrProtocolKind::kIblt2),
      SsrProtocolKindName(SsrProtocolKind::kCascade),
      SsrProtocolKindName(SsrProtocolKind::kMultiRound)};
  static const char* const kCodecNames[obs::kWireCodecs] = {"dense",
                                                            "sparse"};
  obs::AppendRegistry(metrics, kKindNames, kCodecNames, *writer);
  writer->Counter("setrec_sessions_submitted", "", stats.sessions_submitted);
  writer->Counter("setrec_sessions_completed", "", stats.sessions_completed);
  writer->Counter("setrec_sessions_failed", "", stats.sessions_failed);
  writer->Counter("setrec_sessions_cancelled", "",
                  stats.sessions_cancelled);
  writer->Counter("setrec_total_rounds", "", stats.total_rounds);
  writer->Counter("setrec_total_bytes", "", stats.total_bytes);
  writer->Counter("setrec_steps", "", stats.steps);
  writer->Counter("setrec_resumes", "", stats.resumes);
  writer->Counter("setrec_flushes", "", stats.flushes);
  writer->Counter("setrec_flushed_keys", "", stats.flushed_keys);
  writer->Gauge("setrec_max_flush_keys", "", stats.max_flush_keys);
  writer->Counter("setrec_sharded_flushes", "", stats.sharded_flushes);
  writer->Counter("setrec_estimator_jobs", "", stats.estimator_jobs);
  writer->Counter("setrec_cache_hits", "", stats.cache_hits);
  writer->Counter("setrec_cache_misses", "", stats.cache_misses);
  writer->Counter("setrec_remote_messages", "", stats.remote_messages);
  writer->Counter("setrec_cross_shard_lease_wakes", "",
                  stats.cross_shard_lease_wakes);
}

void SyncService::RunToCompletion() {
  while (Step()) {
  }
}

std::vector<SessionResult> SyncService::TakeResults() {
  return std::move(results_);
}

}  // namespace setrec
