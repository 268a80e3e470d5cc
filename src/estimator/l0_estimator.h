#ifndef SETREC_ESTIMATOR_L0_ESTIMATOR_H_
#define SETREC_ESTIMATOR_L0_ESTIMATOR_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/serialization.h"
#include "util/status.h"

namespace setrec {

/// The paper's set-difference estimator (Theorem 3.1 / Appendix A), built
/// from streaming l0-norm estimation over {-1,0,1} vectors:
///
///  * Elements are assigned to level i with probability 2^-(i+1) via the
///    least-significant set bit of a pairwise-independent hash.
///  * Each level is a bank of 2-bit counters mod 4; an Update on side 1
///    adds +1 to the element's bucket, side 2 adds -1 (== +3 mod 4).
///  * Counters are stored as 3-bit fields (one always-zero padding bit), so
///    Merge is word-parallel: add the raw words, then mask the padding bits
///    — exactly the word-RAM trick described in Appendix A.
///  * The estimate is derived from the deepest level whose count c of
///    nonzero buckets exceeds a threshold (8, as in Appendix A / KNW'10).
///    Only that level is corrected for bucket collisions, to
///    -B·log1p(-c/B)·2^(level+1) with B buckets (c capped at B-1). When no
///    level reaches the threshold, the levels partition the difference, so
///    summing nonzero buckets across levels is (near) exact.
///  * Replicated kReplicas times; Estimate() returns the median.
///
/// Versus the strata estimator this is ~an order of magnitude smaller (no
/// O(log u)-bit keys, just 2-bit counters) with O(words) merge — the
/// improvement Theorem 3.1 claims over [14].
class L0Estimator {
 public:
  struct Params {
    /// Buckets per level. Collisions (two difference elements in one
    /// bucket) bias the estimate low; 64 keeps levels accurate up to the
    /// activation threshold while staying a few words wide.
    size_t buckets_per_level = 64;
    /// Number of levels; level i receives a 2^-(i+1) sample.
    int num_levels = 40;
    /// Independent replicas; the estimate is their median.
    int replicas = 7;
    /// Shared public-coin seed.
    uint64_t seed = 0;
  };

  /// The replica estimate of every (level, count) pair for estimators of
  /// one Params: the exact values Estimate() computes for a replica whose
  /// deepest level past the threshold is `level`, with `count` nonzero
  /// buckets there. Built once for a run of PairEstimate calls, so that no
  /// pair makes a libm call.
  class Corrections {
   public:
    explicit Corrections(const Params& params);
    uint64_t operator()(int level, uint64_t count) const {
      return table_[static_cast<size_t>(level) * buckets_ +
                    std::min<uint64_t>(count, buckets_ - 1)];
    }
    bool BuiltFor(const Params& params) const {
      return params.buckets_per_level == buckets_ &&
             params.num_levels == num_levels_;
    }

   private:
    size_t buckets_;
    int num_levels_;
    std::vector<uint64_t> table_;
  };

  explicit L0Estimator(const Params& params);

  /// Adds x to side 1 or side 2.
  void Update(uint64_t x, int side);

  /// Adds a block of elements to one side; equivalent to n Update calls but
  /// processed replica-by-replica for cache locality.
  void UpdateBatch(const uint64_t* xs, size_t n, int side);

  /// Merges a peer estimator built with identical Params (word add + mask).
  Status Merge(const L0Estimator& other);

  /// Median-of-replicas constant-factor estimate of |S1 ⊕ S2|.
  uint64_t Estimate() const;

  /// Estimate() of this estimator merged with `other`, read from both
  /// estimators' words in one pass (each pair of words added and masked as
  /// Merge does), with no merged copy. `corrections` must be built from the
  /// same Params. Rejects mismatched params as Merge does, and never
  /// allocates with at most 16 replicas.
  Result<uint64_t> PairEstimate(const L0Estimator& other,
                                const Corrections& corrections) const;

  void Serialize(ByteWriter* writer) const;
  static Result<L0Estimator> Deserialize(ByteReader* reader,
                                         const Params& params);
  size_t SerializedSize() const;

  const Params& params() const { return params_; }

 private:
  /// Raw storage words for (replica, level).
  size_t LevelOffset(int replica, int level) const;
  void UpdateReplica(int replica, uint64_t x, uint64_t add);
  bool SameParams(const Params& other) const;

  Params params_;
  size_t words_per_level_;
  uint64_t bucket_reciprocal_;  // ModReciprocal(buckets_per_level).
  std::vector<uint64_t> words_;
  std::vector<uint64_t> replica_seeds_;
};

}  // namespace setrec

#endif  // SETREC_ESTIMATOR_L0_ESTIMATOR_H_
