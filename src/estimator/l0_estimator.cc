#include "estimator/l0_estimator.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "hashing/hash.h"
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

/// Nonzero 2-bit fields of one word: OR the two bits of each field
/// together, then sum those 21 bits in ever wider lanes (no popcount
/// instruction is assumed).
inline uint64_t NonzeroFields(uint64_t word) {
  uint64_t x = (word | (word >> 1)) & 0x1249249249249249ull;  // Bit 3i.
  x = (x + (x >> 3)) & 0x30c30c30c30c30c3ull;   // Sums of 2 at bit 6i.
  x = (x + (x >> 6)) & 0x7007007007007007ull;   // Sums of 4 at bit 12i.
  x = (x + (x >> 12)) & 0x000f00000f00000full;  // Sums of 8 at bit 24i.
  return (x + (x >> 24) + (x >> 48)) & 0x1f;
}

/// A replica's estimate when `level` is its deepest level past the
/// threshold, with `nonzero` of its buckets nonzero: the occupancy curve
/// inverted to correct for bucket collisions (c capped at B-1), scaled by
/// 2^(level+1) because level i samples 2^-(i+1) of the difference (ldexp
/// scales exactly). Estimate() and Corrections share this one expression.
uint64_t LevelEstimate(int level, uint64_t nonzero, size_t buckets_per_level) {
  const double buckets = static_cast<double>(buckets_per_level);
  double c = static_cast<double>(nonzero);
  if (c >= buckets) c = buckets - 1;
  const double corrected = -buckets * std::log1p(-c / buckets);
  return static_cast<uint64_t>(std::llround(std::ldexp(corrected, level + 1)));
}

/// One replica's estimate from its levels' words, `word(i)` being word i of
/// the replica's block, and `level_estimate(level, count)` LevelEstimate's
/// value. Levels are scanned deepest first, so the first one past the
/// threshold is the deepest and the only one corrected.
template <typename Word, typename LevelEstimateFn>
uint64_t EstimateReplica(int num_levels, size_t words_per_level, Word word,
                         const LevelEstimateFn& level_estimate) {
  uint64_t total_nonzero = 0;
  // LINT(alloc-free) — the per-level count of every estimate and pair
  // estimate (multiround ranks thousands of pairs per call).
  for (int level = num_levels - 1; level >= 0; --level) {
    const size_t first = static_cast<size_t>(level) * words_per_level;
    uint64_t nonzero = 0;
    for (size_t w = 0; w < words_per_level; ++w) {
      nonzero += NonzeroFields(word(first + w));
    }
    if (nonzero > kThreshold) return level_estimate(level, nonzero);
    total_nonzero += nonzero;
  }
  // LINT(end)
  // No level activated: levels partition the difference, so the sum of
  // nonzero buckets across all levels is a near-exact count.
  return total_nonzero;
}

/// The median of `replicas` replica estimates, `estimate(r)` being replica
/// r's. They sit in a stack array, or on the heap above kStackReplicas
/// replicas, so the usual estimate never allocates.
template <typename ReplicaEstimate>
uint64_t MedianOfReplicas(int replicas, ReplicaEstimate estimate) {
  constexpr size_t kStackReplicas = 16;
  const size_t count = static_cast<size_t>(replicas);
  uint64_t stack_estimates[kStackReplicas] = {};
  std::vector<uint64_t> heap_estimates(count > kStackReplicas ? count : 0);
  uint64_t* estimates =
      count > kStackReplicas ? heap_estimates.data() : stack_estimates;
  for (size_t r = 0; r < count; ++r) estimates[r] = estimate(r);
  std::nth_element(estimates, estimates + count / 2, estimates + count);
  return estimates[count / 2];
}

}  // namespace

L0Estimator::Corrections::Corrections(const Params& params)
    : buckets_(params.buckets_per_level),
      num_levels_(params.num_levels),
      table_(static_cast<size_t>(std::max(params.num_levels, 0)) *
             params.buckets_per_level) {
  for (int level = 0; level < num_levels_; ++level) {
    for (size_t c = 0; c < buckets_; ++c) {
      table_[static_cast<size_t>(level) * buckets_ + c] =
          LevelEstimate(level, c, buckets_);
    }
  }
}

L0Estimator::L0Estimator(const Params& params)
    : params_(params),
      words_per_level_((params.buckets_per_level + kFieldsPerWord - 1) /
                       kFieldsPerWord),
      bucket_reciprocal_(ModReciprocal(params.buckets_per_level)),
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
  uint64_t bucket = ModByReciprocal(
      Mix64(x ^ (replica_seeds_[static_cast<size_t>(r)] +
                 0x9e3779b97f4a7c15ull)),
      params_.buckets_per_level, bucket_reciprocal_);
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

bool L0Estimator::SameParams(const Params& other) const {
  return other.buckets_per_level == params_.buckets_per_level &&
         other.num_levels == params_.num_levels &&
         other.replicas == params_.replicas && other.seed == params_.seed;
}

Status L0Estimator::Merge(const L0Estimator& other) {
  if (!SameParams(other.params_)) {
    return InvalidArgument("l0 merge: mismatched params");
  }
  // The Appendix A word trick: counters occupy 2 of every 3 bits, so a raw
  // 64-bit add cannot carry across fields; masking restores mod-4 fields.
  for (size_t i = 0; i < words_.size(); ++i) {
    words_[i] = (words_[i] + other.words_[i]) & kFieldMask;
  }
  return Status::Ok();
}

uint64_t L0Estimator::Estimate() const {
  const size_t buckets = params_.buckets_per_level;
  const size_t replica_words =
      static_cast<size_t>(params_.num_levels) * words_per_level_;
  return MedianOfReplicas(params_.replicas, [&](size_t r) {
    const uint64_t* words = words_.data() + r * replica_words;
    return EstimateReplica(
        params_.num_levels, words_per_level_,
        [words](size_t i) { return words[i]; },
        [buckets](int level, uint64_t count) {
          return LevelEstimate(level, count, buckets);
        });
  });
}

Result<uint64_t> L0Estimator::PairEstimate(
    const L0Estimator& other, const Corrections& corrections) const {
  if (!SameParams(other.params_) || !corrections.BuiltFor(params_)) {
    return InvalidArgument("l0 pair estimate: mismatched params");
  }
  const size_t replica_words =
      static_cast<size_t>(params_.num_levels) * words_per_level_;
  return MedianOfReplicas(params_.replicas, [&](size_t r) {
    const uint64_t* mine = words_.data() + r * replica_words;
    const uint64_t* theirs = other.words_.data() + r * replica_words;
    // Merge's word add and mask, one word pair at a time.
    return EstimateReplica(
        params_.num_levels, words_per_level_,
        [mine, theirs](size_t i) {
          return (mine[i] + theirs[i]) & kFieldMask;
        },
        corrections);
  });
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
