#ifndef SETREC_SETREC_SET_RECONCILER_H_
#define SETREC_SETREC_SET_RECONCILER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "charpoly/charpoly_reconciler.h"
#include "transport/channel.h"
#include "util/status.h"

namespace setrec {

/// One-way set reconciliation: at the end Bob holds Alice's set. These
/// wrappers run the full message exchange over a Channel so every byte and
/// round is accounted for, and verify recovery against a fingerprint of
/// Alice's set (the paper's standard guard against checksum failures),
/// retrying with fresh public coins up to `max_attempts` times.
struct SetReconcilerOptions {
  uint64_t seed = 0;
  int max_attempts = 4;
  /// Safety factor applied to estimator outputs in the unknown-d protocol.
  double estimate_slack = 2.0;
};

/// Outcome of a reconciliation run.
struct SetReconcileOutcome {
  /// Bob's recovered copy of Alice's set (sorted).
  std::vector<uint64_t> recovered;
  /// The decoded difference (Alice-only / Bob-only elements).
  SetDifference diff;
  int attempts = 1;
};

/// Corollary 2.2: known difference bound d, one round, O(d log u) bits.
Result<SetReconcileOutcome> IbltReconcileKnown(
    const std::vector<uint64_t>& alice, const std::vector<uint64_t>& bob,
    size_t d, const SetReconcilerOptions& options, Channel* channel);

/// Corollary 3.2: unknown d, two rounds; Bob first sends the Theorem 3.1
/// l0 set-difference estimator, Alice sizes her IBLT from the estimate.
Result<SetReconcileOutcome> IbltReconcileUnknown(
    const std::vector<uint64_t>& alice, const std::vector<uint64_t>& bob,
    const SetReconcilerOptions& options, Channel* channel);

/// Theorem 2.3: characteristic-polynomial reconciliation, one round,
/// deterministic success given a correct bound d (detects a bad bound).
Result<SetReconcileOutcome> CharPolyReconcile(
    const std::vector<uint64_t>& alice, const std::vector<uint64_t>& bob,
    size_t d, const SetReconcilerOptions& options, Channel* channel);

/// Multiset reconciliation (Section 3.4): elements encoded through
/// MultisetCodec, then reconciled with the IBLT route. Inputs/outputs are
/// multisets (sorted, repeats allowed).
Result<SetReconcileOutcome> MultisetReconcileKnown(
    const std::vector<uint64_t>& alice, const std::vector<uint64_t>& bob,
    size_t d, const SetReconcilerOptions& options, Channel* channel);

/// Applies a decoded difference to `base`: adds remote_only, removes
/// local_only. Returns the sorted result.
std::vector<uint64_t> ApplyDifference(const std::vector<uint64_t>& base,
                                      const SetDifference& diff);

/// Span form, the shape IbltDecodeView64 hands back: identical semantics
/// without materializing the difference into owned vectors first. The
/// base and both sides are merged in sorted order straight into the
/// result; an input that arrives unsorted is sorted in a copy, so callers
/// holding a decode view sort its sides in place first and, with a sorted
/// base, build one vector.
std::vector<uint64_t> ApplyDifference(const std::vector<uint64_t>& base,
                                      std::span<const uint64_t> remote_only,
                                      std::span<const uint64_t> local_only);

}  // namespace setrec

#endif  // SETREC_SETREC_SET_RECONCILER_H_
