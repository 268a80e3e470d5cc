#include "estimator/l0_estimator.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "hashing/random.h"

namespace setrec {

namespace {

/// 3-bit fields per 64-bit word (63 bits used).
constexpr size_t kFieldsPerWord = 21;

/// Mask keeping the low 2 bits of every 3-bit field (clears padding bits).
constexpr uint64_t FieldMask() {
  uint64_t mask = 0;
  for (size_t i = 0; i < kFieldsPerWord; ++i) mask |= 0x3ull << (3 * i);
  return mask;
}
constexpr uint64_t kFieldMask = FieldMask();

/// Activation threshold from Appendix A ("reports that the l0-norm is
/// greater than 8").
constexpr uint64_t kThreshold = 8;

}  // namespace

L0Estimator::L0Estimator(const Params& params)
    : params_(params),
      words_per_level_((params.buckets_per_level + kFieldsPerWord - 1) /
                       kFieldsPerWord),
      words_(static_cast<size_t>(params.replicas) *
                 static_cast<size_t>(params.num_levels) * words_per_level_,
             0) {
  replica_seeds_.reserve(static_cast<size_t>(params_.replicas));
  for (int r = 0; r < params_.replicas; ++r) {
    replica_seeds_.push_back(DeriveSeed(
        params_.seed, uint64_t{0x6c306573} + static_cast<uint64_t>(r)));  // "l0es"
  }
}

size_t L0Estimator::LevelOffset(int replica, int level) const {
  return (static_cast<size_t>(replica) * static_cast<size_t>(params_.num_levels) +
          static_cast<size_t>(level)) *
         words_per_level_;
}

void L0Estimator::Update(uint64_t x, int side) {
  const uint64_t add = side == 1 ? 1 : 3;  // -1 mod 4.
  for (int r = 0; r < params_.replicas; ++r) {
    UpdateReplica(r, x, add);
  }
}

void L0Estimator::UpdateReplica(int r, uint64_t x, uint64_t add) {
  uint64_t h = Mix64(x ^ replica_seeds_[static_cast<size_t>(r)]);
  int level = std::countr_zero(h | (1ull << (params_.num_levels - 1)));
  uint64_t bucket =
      Mix64(x ^ (replica_seeds_[static_cast<size_t>(r)] +
                 0x9e3779b97f4a7c15ull)) %
      params_.buckets_per_level;
  size_t word = LevelOffset(r, level) + bucket / kFieldsPerWord;
  size_t shift = 3 * (bucket % kFieldsPerWord);
  words_[word] += add << shift;
  words_[word] &= kFieldMask;
}

void L0Estimator::UpdateBatch(const uint64_t* xs, size_t n, int side) {
  const uint64_t add = side == 1 ? 1 : 3;  // -1 mod 4.
  // Replica-outer order keeps each pass inside one replica's word block;
  // updates commute (every write re-masks its word), so this matches n
  // single-element Update calls exactly.
  for (int r = 0; r < params_.replicas; ++r) {
    for (size_t j = 0; j < n; ++j) UpdateReplica(r, xs[j], add);
  }
}

Status L0Estimator::Merge(const L0Estimator& other) {
  if (other.params_.buckets_per_level != params_.buckets_per_level ||
      other.params_.num_levels != params_.num_levels ||
      other.params_.replicas != params_.replicas ||
      other.params_.seed != params_.seed) {
    return InvalidArgument("l0 merge: mismatched params");
  }
  // The Appendix A word trick: counters occupy 2 of every 3 bits, so a raw
  // 64-bit add cannot carry across fields; masking restores mod-4 fields.
  for (size_t i = 0; i < words_.size(); ++i) {
    words_[i] = (words_[i] + other.words_[i]) & kFieldMask;
  }
  return Status::Ok();
}

uint64_t L0Estimator::EstimateReplica(int replica) const {
  uint64_t total_nonzero = 0;
  double best = -1.0;
  const double buckets = static_cast<double>(params_.buckets_per_level);
  for (int level = 0; level < params_.num_levels; ++level) {
    size_t offset = LevelOffset(replica, level);
    uint64_t nonzero = 0;
    for (size_t w = 0; w < words_per_level_; ++w) {
      uint64_t word = words_[offset + w];
      // Count nonzero 2-bit fields: OR the two bits of each field together.
      uint64_t any = (word | (word >> 1)) & 0x2492492492492492ull >> 1;
      nonzero += static_cast<uint64_t>(std::popcount(any));
    }
    total_nonzero += nonzero;
    if (nonzero > kThreshold) {
      // Invert the occupancy curve to correct for bucket collisions.
      double c = static_cast<double>(nonzero);
      if (c >= buckets) c = buckets - 1;
      double corrected = -buckets * std::log1p(-c / buckets);
      best = corrected * std::pow(2.0, level + 1);
    }
  }
  if (best >= 0.0) return static_cast<uint64_t>(std::llround(best));
  // No level activated: levels partition the difference, so the sum of
  // nonzero buckets across all levels is a near-exact count.
  return total_nonzero;
}

uint64_t L0Estimator::Estimate() const {
  // The replicas' estimates sit in a stack array, or on the heap above
  // kStackReplicas replicas, so the usual estimate never allocates.
  constexpr size_t kStackReplicas = 16;
  const size_t count = static_cast<size_t>(params_.replicas);
  uint64_t stack_estimates[kStackReplicas] = {};
  std::vector<uint64_t> heap_estimates(count > kStackReplicas ? count : 0);
  uint64_t* estimates =
      count > kStackReplicas ? heap_estimates.data() : stack_estimates;
  for (size_t r = 0; r < count; ++r) {
    estimates[r] = EstimateReplica(static_cast<int>(r));
  }
  std::nth_element(estimates, estimates + count / 2, estimates + count);
  return estimates[count / 2];
}

void L0Estimator::Serialize(ByteWriter* writer) const {
  for (uint64_t w : words_) writer->PutU64(w);
}

Result<L0Estimator> L0Estimator::Deserialize(ByteReader* reader,
                                             const Params& params) {
  L0Estimator est(params);
  for (uint64_t& w : est.words_) {
    if (!reader->GetU64(&w)) return ParseError("l0 estimator truncated");
  }
  return est;
}

size_t L0Estimator::SerializedSize() const { return words_.size() * 8; }

}  // namespace setrec
