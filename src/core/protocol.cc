#include "core/protocol.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <functional>
#include <numeric>

#include "core/build_context.h"
#include "setrec/multiset_codec.h"
#include "util/serialization.h"

namespace setrec {

namespace {

/// True when every child is lexicographically below the next one: the
/// parent is sorted and has no repeated child. One O(s) pass.
bool ChildrenStrictlyIncreasing(const SetOfSets& sets) {
  for (size_t i = 1; i < sets.size(); ++i) {
    if (!(sets[i - 1] < sets[i])) return false;
  }
  return true;
}

/// Child indices ordered by child, lexicographically. Equal children land
/// next to each other in no set order; every caller treats them alike.
std::vector<size_t> SortedChildOrder(const SetOfSets& sets) {
  std::vector<size_t> order(sets.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return sets[a] < sets[b]; });
  return order;
}

}  // namespace

Task<Result<SsrOutcome>> SetsOfSetsProtocol::ReconcileAsync(
    const SetOfSets& alice, const SetOfSets& bob,
    std::optional<size_t> known_d, Channel* channel,
    ProtocolContext* ctx) const {
  Task<Status> alice_half = ReconcileAsyncAlice(alice, known_d, channel, ctx);
  Task<Result<SsrOutcome>> bob_half =
      ReconcileAsyncBob(bob, known_d, channel, ctx);
  // Start both; turn-taking drives them from here. Under the inline context
  // every send pumps the peer's parked receive synchronously, so these two
  // calls run the whole ping-pong to completion; under the service context
  // the halves park at round/build boundaries and the scheduler resumes
  // them, so the joins below subscribe and wait. The abort/verdict
  // discipline of split_party.h guarantees both halves terminate, on error
  // paths included.
  alice_half.Start();
  bob_half.Start();
  co_await TaskJoin<Status>{&alice_half};
  co_await TaskJoin<Result<SsrOutcome>>{&bob_half};
  Status alice_status = alice_half.TakeResult();
  Result<SsrOutcome> outcome = bob_half.TakeResult();
  if (!outcome.ok()) co_return outcome.status();
  if (!alice_status.ok()) co_return alice_status;
  co_return outcome;
}

Result<SsrOutcome> SetsOfSetsProtocol::Reconcile(const SetOfSets& alice,
                                                 const SetOfSets& bob,
                                                 std::optional<size_t> known_d,
                                                 Channel* channel) const {
  InlineContext ctx;
  return RunSync(ReconcileAsync(alice, bob, known_d, channel, &ctx));
}

SetOfSets Canonicalize(SetOfSets sets) {
  for (ChildSet& child : sets) {
    std::sort(child.begin(), child.end());
    child.erase(std::unique(child.begin(), child.end()), child.end());
  }
  std::sort(sets.begin(), sets.end());
  sets.erase(std::unique(sets.begin(), sets.end()), sets.end());
  return sets;
}

uint64_t ChildFingerprint(const ChildSet& child, const HashFamily& family) {
  return SetFingerprint(child, family);
}

uint64_t ParentFingerprint(const SetOfSets& sets, const HashFamily& family) {
  std::vector<uint64_t> child_fps;
  child_fps.reserve(sets.size());
  for (const ChildSet& child : sets) {
    child_fps.push_back(ChildFingerprint(child, family));
  }
  return SetFingerprint(child_fps, family);
}

size_t TotalElements(const SetOfSets& sets) {
  size_t n = 0;
  for (const ChildSet& child : sets) n += child.size();
  return n;
}

Status ValidateSetOfSets(const SetOfSets& sets, const SsrParams& params) {
  for (const ChildSet& child : sets) {
    if (params.max_child_size > 0 && child.size() > params.max_child_size) {
      return InvalidArgument("child set larger than max_child_size (h)");
    }
    for (size_t i = 0; i < child.size(); ++i) {
      if (child[i] >= kParentMarkBase + (1ull << 48)) {
        return InvalidArgument("element outside the library element space");
      }
      if (i > 0 && child[i] <= child[i - 1]) {
        return InvalidArgument("child set not sorted/unique");
      }
    }
  }
  if (params.max_children > 0 && sets.size() > params.max_children) {
    return InvalidArgument("more children than max_children (s)");
  }
  if (!ChildrenStrictlyIncreasing(sets)) {
    const std::vector<size_t> order = SortedChildOrder(sets);
    for (size_t k = 1; k < order.size(); ++k) {
      if (sets[order[k - 1]] == sets[order[k]]) {
        return InvalidArgument("repeated child set");
      }
    }
  }
  return Status::Ok();
}

ChildFingerprintIndex::ChildFingerprintIndex(
    std::span<const uint64_t> fingerprints) {
  entries_.reserve(fingerprints.size());
  for (size_t i = 0; i < fingerprints.size(); ++i) {
    entries_.emplace_back(fingerprints[i], i);
  }
  std::sort(entries_.begin(), entries_.end());
}

bool ChildFingerprintIndex::HasDuplicate() const {
  return std::adjacent_find(entries_.begin(), entries_.end(),
                            [](const auto& a, const auto& b) {
                              return a.first == b.first;
                            }) != entries_.end();
}

std::optional<size_t> ChildFingerprintIndex::Find(uint64_t fp) const {
  auto it = std::lower_bound(entries_.begin(), entries_.end(),
                             std::pair<uint64_t, size_t>(fp, 0));
  if (it == entries_.end() || it->first != fp) return std::nullopt;
  return it->second;
}

uint64_t ChildIbltBlobFingerprint(IbltKeyView blob) {
  if (blob.size < 8) return 0;
  return LoadLittleEndian<uint64_t>(blob.data + blob.size - 8);
}

std::optional<size_t> ChildFingerprintIndex::FindBlob(
    const IbltKeyView& blob, const uint8_t* packed) const {
  // LINT(alloc-free)
  if (blob.size < 8) return std::nullopt;
  const uint64_t fp = ChildIbltBlobFingerprint(blob);
  auto it = std::lower_bound(entries_.begin(), entries_.end(),
                             std::pair<uint64_t, size_t>(fp, 0));
  for (; it != entries_.end() && it->first == fp; ++it) {
    if (std::memcmp(packed + it->second * blob.size, blob.data, blob.size) ==
        0) {
      return it->second;
    }
  }
  return std::nullopt;
  // LINT(end)
}

void MarkDecodedNegatives(std::span<const IbltKeyView> negatives,
                          const uint8_t* packed, size_t width, size_t count,
                          std::vector<bool>* drop) {
  if (negatives.empty()) return;
  std::vector<IbltKeyView> sorted(negatives.begin(), negatives.end());
  std::sort(sorted.begin(), sorted.end(), KeyBytesLess{});
  for (size_t i = 0; i < count; ++i) {
    const IbltKeyView blob{packed + i * width, width};
    if (std::binary_search(sorted.begin(), sorted.end(), blob,
                           KeyBytesLess{})) {
      (*drop)[i] = true;
    }
  }
}

AssembledParent AssembleParent(const SetOfSets& bob,
                               std::span<const uint64_t> bob_fps,
                               const std::vector<bool>& drop,
                               std::vector<RecoveredChild> recovered,
                               const HashFamily& family) {
  assert(bob_fps.size() == bob.size() && drop.size() == bob.size());
  // A recovered child's verified fingerprint hashes its elements as
  // received; only a child that canonicalizes differently needs a new one.
  for (RecoveredChild& child : recovered) {
    ChildSet& set = child.set;
    if (std::adjacent_find(set.begin(), set.end(),
                           std::greater_equal<uint64_t>()) == set.end()) {
      continue;
    }
    std::sort(set.begin(), set.end());
    set.erase(std::unique(set.begin(), set.end()), set.end());
    child.fingerprint = ChildFingerprint(set, family);
  }
  std::sort(recovered.begin(), recovered.end(),
            [](const RecoveredChild& a, const RecoveredChild& b) {
              return a.set < b.set;
            });
  // Bob's parent arrives sorted in practice; the index sort is the
  // fallback for callers that hand it over in any order.
  const bool bob_sorted = ChildrenStrictlyIncreasing(bob);
  const std::vector<size_t> bob_order =
      bob_sorted ? std::vector<size_t>{} : SortedChildOrder(bob);
  auto bob_at = [&](size_t pos) { return bob_sorted ? pos : bob_order[pos]; };

  AssembledParent out;
  out.parent.reserve(bob.size() + recovered.size());
  std::vector<uint64_t> fps;
  fps.reserve(bob.size() + recovered.size());
  // Both runs are sorted, so Canonicalize's duplicates are neighbours of
  // the last child taken.
  auto fresh = [&](const ChildSet& child) {
    return out.parent.empty() || out.parent.back() != child;
  };
  size_t pos = 0;
  size_t r = 0;
  while (pos < bob.size() || r < recovered.size()) {
    if (pos < bob.size() && drop[bob_at(pos)]) {
      ++pos;
      continue;
    }
    const bool take_bob =
        pos < bob.size() &&
        (r == recovered.size() || !(recovered[r].set < bob[bob_at(pos)]));
    if (take_bob) {
      const size_t i = bob_at(pos++);
      if (fresh(bob[i])) {
        out.parent.push_back(bob[i]);
        fps.push_back(bob_fps[i]);
      }
    } else {
      RecoveredChild& child = recovered[r++];
      if (fresh(child.set)) {
        out.parent.push_back(std::move(child.set));
        fps.push_back(child.fingerprint);
      }
    }
  }
  out.fingerprint = SetFingerprint(fps, family);
  return out;
}

size_t DHat(size_t d, const SsrParams& params) {
  size_t d_hat = d;
  if (params.max_children > 0) d_hat = std::min(d_hat, params.max_children);
  if (params.max_differing_children > 0) {
    d_hat = std::min(d_hat, params.max_differing_children);
  }
  return d_hat;
}

}  // namespace setrec
