#ifndef SETREC_SERVICE_SHARED_CACHE_H_
#define SETREC_SERVICE_SHARED_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/protocol.h"
#include "hashing/random.h"
#include "iblt/iblt.h"

namespace setrec {

/// The cross-session memo state that PR 3 kept inside one SyncService —
/// registered shared sets, Alice-message bytes, validation verdicts,
/// Bob-side parsed tables, and the anti-stampede build leases — hoisted out
/// so N service shards can share it.
///
/// Locking discipline (see src/service/README.md):
///  * Every mutating/reading path takes a per-stripe mutex chosen by
///    Mix64(key); stripes are independent, so shards contend only on the
///    same key neighborhood, never on one global lock.
///  * Memo entries (message bytes, parsed tables, pinned sets) are
///    IMMUTABLE once inserted and NEVER erased, so the pointers handed back
///    by Lookup/FindTableMemo stay valid for the cache's lifetime and may
///    be read outside the stripe lock. Eviction is by refusing inserts at
///    the cap, exactly as the pre-shard service behaved.
///  * Build leases are the only mutable records. A shard that loses the
///    acquire race registers itself as a lease waiter; ReleaseLease hands
///    the caller the waiting shard ids, and the service layer routes a
///    lease-wake through each shard's lock-free mailbox (the parked
///    coroutines themselves never cross threads).
class SharedServiceCache {
 public:
  /// Cap on memoized Alice messages (and, independently, parsed tables):
  /// a Store past it is refused.
  static constexpr size_t kMaxEntries = 4096;

  SharedServiceCache() = default;

  SharedServiceCache(const SharedServiceCache&) = delete;
  SharedServiceCache& operator=(const SharedServiceCache&) = delete;

  // --- Registered shared sets -----------------------------------------

  /// Pins `set` for the cache's lifetime; returns its stable identity
  /// (dense from 1). Re-registering the same pointer returns the same id.
  uint64_t RegisterSharedSet(std::shared_ptr<const SetOfSets> set);
  std::shared_ptr<const SetOfSets> SharedSetById(uint64_t id) const;
  /// Identity of a registered set pointer, 0 when unknown.
  uint64_t IdentityOf(const void* set) const;

  // --- Alice-message memo ---------------------------------------------

  /// The memoized message for `key`, or null. The pointee is immutable and
  /// lives as long as the cache (entries are never evicted), so the caller
  /// may use it after dropping into coroutine code.
  const std::vector<uint8_t>* Lookup(uint64_t key) const;
  void Store(uint64_t key, const std::vector<uint8_t>& bytes);

  // --- Validation memo ------------------------------------------------

  bool CheckValidated(uint64_t key) const;
  void MarkValidated(uint64_t key);

  // --- Bob-side parsed-table memo -------------------------------------

  struct TableMemoEntry {
    Iblt table;
    /// Serialized length to skip on replay.
    size_t consumed;
  };
  /// Stable pointer to the memoized parse for `key`, or null.
  const TableMemoEntry* FindTableMemo(uint64_t key) const;
  void StoreTableMemo(uint64_t key, const Iblt& table, size_t consumed);

  // --- Anti-stampede build leases -------------------------------------

  /// True when the caller is now the builder for `key`.
  bool TryAcquireLease(uint64_t key);
  /// Registers `shard` to be woken when `key`'s lease releases. False when
  /// the lease is no longer held (the caller should wake itself and
  /// re-contend instead of waiting for a release that already happened).
  bool AddLeaseWaiter(uint64_t key, int shard);
  /// Releases the lease and returns the shards with registered waiters
  /// (deduped; may include the releasing shard itself).
  std::vector<int> ReleaseLease(uint64_t key);

 private:
  static constexpr size_t kStripes = 16;

  struct Stripe {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, std::vector<uint8_t>> messages;
    std::unordered_set<uint64_t> validated;
    std::unordered_map<uint64_t, TableMemoEntry> tables;
    struct Lease {
      std::vector<int> waiter_shards;
    };
    std::unordered_map<uint64_t, Lease> leases;
  };

  Stripe& StripeFor(uint64_t key) const {
    return stripes_[Mix64(key) % kStripes];
  }

  mutable Stripe stripes_[kStripes];
  /// Global entry counts (the kMaxEntries caps are whole-cache, not
  /// per-stripe); relaxed atomics — a back-stop, not an invariant.
  std::atomic<size_t> message_count_{0};
  std::atomic<size_t> table_count_{0};

  mutable std::mutex sets_mu_;
  std::vector<std::shared_ptr<const SetOfSets>> pinned_sets_;
  std::unordered_map<const void*, uint64_t> set_identities_;
};

}  // namespace setrec

#endif  // SETREC_SERVICE_SHARED_CACHE_H_
