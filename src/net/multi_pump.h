#ifndef SETREC_NET_MULTI_PUMP_H_
#define SETREC_NET_MULTI_PUMP_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/net_pump.h"
#include "service/sharded_service.h"
#include "util/status.h"

namespace setrec {

struct MultiNetPumpOptions {
  /// Per-pump options; reuse_port is forced on for TCP listeners.
  NetPumpOptions pump;
  /// Poll timeout of each pump thread's pass. Wakes (new fds, shard
  /// mailbox pushes) interrupt it through the pump's self-pipe, so this is
  /// only the ceiling on reacting to events with no wake attached.
  int poll_timeout_ms = 50;
};

/// One NetPump per service shard, each on its own thread: pump thread i IS
/// shard i's driving thread (its PumpOnce feeds sockets into shard i and
/// steps it), so the pump↔service pair stays the single-threaded unit it
/// was in PR 4 — N times over. Connection placement:
///
///  * TCP: every pump listens on the same port with SO_REUSEPORT; the
///    kernel spreads accepted connections across the listeners.
///  * Adopted fds (socketpairs, inherited sockets): routed to the pump
///    whose shard carries the least load (see AdoptConnection) and handed
///    off through that pump's lock-free adopt queue + self-pipe wake.
///
/// The ShardedSyncService must be constructed with spawn_threads == false;
/// the multi-pump registers itself as the shard wake hook so cross-shard
/// lease releases interrupt the target pump's poll.
class MultiNetPump {
 public:
  MultiNetPump(ShardedSyncService* service, MultiNetPumpOptions options = {});
  ~MultiNetPump();

  MultiNetPump(const MultiNetPump&) = delete;
  MultiNetPump& operator=(const MultiNetPump&) = delete;

  size_t pump_count() const { return pumps_.size(); }
  NetPump* pump(size_t i) { return pumps_[i].get(); }

  /// Binds every pump to `port` (0 = ephemeral, resolved by the first
  /// listener) with SO_REUSEPORT; returns the bound port.
  Result<uint16_t> ListenTcp(uint16_t port);

  /// Routes an already-connected fd to the pump whose shard currently
  /// carries the least load (in-flight sessions + undrained mailbox
  /// commands, via ShardedSyncService::LoadOf), ties broken by a rotating
  /// counter so equal-load shards still round-robin. Returns the chosen
  /// pump index (tests assert placement).
  size_t AdoptConnection(int fd);

  /// Spawns one thread per pump. Idempotent.
  void Start();
  /// Stops and joins the pump threads (safe to call twice; the destructor
  /// calls it).
  void Stop();

  /// Finished sessions harvested by the pump threads, in harvest order.
  std::vector<SessionResult> TakeResults();
  /// Sessions harvested so far (monotonic; any thread).
  size_t results_seen() const {
    return results_seen_.load(std::memory_order_acquire);
  }

  /// Sum of per-pump stats. Call with the pumps stopped (or accept a
  /// harmless torn read while they run).
  NetPumpStats AggregateStats() const;

 private:
  void PumpLoop(size_t index);

  ShardedSyncService* service_;
  MultiNetPumpOptions options_;
  std::vector<std::unique_ptr<NetPump>> pumps_;
  std::vector<std::thread> threads_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> next_conn_id_{0};

  std::mutex results_mu_;
  std::vector<SessionResult> results_;
  std::atomic<size_t> results_seen_{0};
};

}  // namespace setrec

#endif  // SETREC_NET_MULTI_PUMP_H_
