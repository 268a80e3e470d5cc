#include "service/shared_cache.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace setrec {

uint64_t SharedServiceCache::RegisterSharedSet(
    std::shared_ptr<const SetOfSets> set) {
  assert(set != nullptr);
  std::lock_guard<std::mutex> lock(sets_mu_);
  auto it = set_identities_.find(set.get());
  if (it != set_identities_.end()) return it->second;
  uint64_t id = static_cast<uint64_t>(pinned_sets_.size()) + 1;
  set_identities_.emplace(set.get(), id);
  pinned_sets_.push_back(std::move(set));
  return id;
}

std::shared_ptr<const SetOfSets> SharedServiceCache::SharedSetById(
    uint64_t id) const {
  std::lock_guard<std::mutex> lock(sets_mu_);
  if (id == 0 || id > pinned_sets_.size()) return nullptr;
  return pinned_sets_[id - 1];  // Ids are assigned densely from 1.
}

uint64_t SharedServiceCache::IdentityOf(const void* set) const {
  std::lock_guard<std::mutex> lock(sets_mu_);
  auto it = set_identities_.find(set);
  return it == set_identities_.end() ? 0 : it->second;
}

const std::vector<uint8_t>* SharedServiceCache::Lookup(uint64_t key) const {
  Stripe& stripe = StripeFor(key);
  std::lock_guard<std::mutex> lock(stripe.mu);
  auto it = stripe.messages.find(key);
  // Entries are immutable and never erased: the pointer stays valid after
  // the stripe lock drops (unordered_map nodes are stable under rehash).
  return it == stripe.messages.end() ? nullptr : &it->second;
}

void SharedServiceCache::Store(uint64_t key,
                               const std::vector<uint8_t>& bytes) {
  // Global cap, counted atomically across stripes (refuse-at-cap, exactly
  // the pre-shard policy; the count may overshoot by at most one in-flight
  // insert per thread, which a back-stop cap tolerates).
  if (message_count_.load(std::memory_order_relaxed) >= kMaxEntries) {
    return;
  }
  Stripe& stripe = StripeFor(key);
  std::lock_guard<std::mutex> lock(stripe.mu);
  if (stripe.messages.emplace(key, bytes).second) {
    message_count_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool SharedServiceCache::CheckValidated(uint64_t key) const {
  Stripe& stripe = StripeFor(key);
  std::lock_guard<std::mutex> lock(stripe.mu);
  return stripe.validated.count(key) > 0;
}

void SharedServiceCache::MarkValidated(uint64_t key) {
  Stripe& stripe = StripeFor(key);
  std::lock_guard<std::mutex> lock(stripe.mu);
  stripe.validated.insert(key);
}

const SharedServiceCache::TableMemoEntry* SharedServiceCache::FindTableMemo(
    uint64_t key) const {
  Stripe& stripe = StripeFor(key);
  std::lock_guard<std::mutex> lock(stripe.mu);
  auto it = stripe.tables.find(key);
  return it == stripe.tables.end() ? nullptr : &it->second;
}

void SharedServiceCache::StoreTableMemo(uint64_t key, const Iblt& table,
                                        size_t consumed) {
  if (table_count_.load(std::memory_order_relaxed) >= kMaxEntries) {
    return;
  }
  Stripe& stripe = StripeFor(key);
  std::lock_guard<std::mutex> lock(stripe.mu);
  if (stripe.tables.emplace(key, TableMemoEntry{table, consumed}).second) {
    table_count_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool SharedServiceCache::TryAcquireLease(uint64_t key) {
  Stripe& stripe = StripeFor(key);
  std::lock_guard<std::mutex> lock(stripe.mu);
  return stripe.leases.emplace(key, Stripe::Lease{}).second;
}

bool SharedServiceCache::AddLeaseWaiter(uint64_t key, int shard) {
  Stripe& stripe = StripeFor(key);
  std::lock_guard<std::mutex> lock(stripe.mu);
  auto it = stripe.leases.find(key);
  if (it == stripe.leases.end()) return false;  // Released already.
  std::vector<int>& waiters = it->second.waiter_shards;
  if (std::find(waiters.begin(), waiters.end(), shard) == waiters.end()) {
    waiters.push_back(shard);
  }
  return true;
}

std::vector<int> SharedServiceCache::ReleaseLease(uint64_t key) {
  Stripe& stripe = StripeFor(key);
  std::lock_guard<std::mutex> lock(stripe.mu);
  auto it = stripe.leases.find(key);
  if (it == stripe.leases.end()) return {};
  std::vector<int> waiters = std::move(it->second.waiter_shards);
  stripe.leases.erase(it);
  return waiters;
}

}  // namespace setrec
