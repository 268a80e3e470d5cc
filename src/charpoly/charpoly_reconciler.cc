#include "charpoly/charpoly_reconciler.h"

#include <algorithm>
#include <cstdlib>

#include "charpoly/gf.h"
#include "charpoly/poly.h"
#include "charpoly/rational_interpolation.h"
#include "charpoly/root_finding.h"
#include "hashing/random.h"

namespace setrec {

CharPolyReconciler::CharPolyReconciler(size_t max_diff, uint64_t seed)
    : max_diff_(std::max<size_t>(max_diff, 1)), seed_(seed) {
  // Points are 2^60 + offset + i: above every legal element, below p.
  uint64_t span = gf::kP - (1ull << 60);
  uint64_t room = span - static_cast<uint64_t>(max_diff_) - 1;
  point_base_ =
      (1ull << 60) + DeriveSeed(seed, /*tag=*/0x70747334ull) % room;  // "pts4"
}

uint64_t CharPolyReconciler::Point(size_t i) const { return point_base_ + i; }

Result<std::vector<uint8_t>> CharPolyReconciler::BuildMessage(
    const std::vector<uint64_t>& set) const {
  for (uint64_t e : set) {
    if (e > gf::kMaxElement) {
      return InvalidArgument("char-poly element exceeds 2^60-1");
    }
  }
  ByteWriter writer;
  writer.PutU64(set.size());
  for (size_t i = 0; i < max_diff_; ++i) {
    writer.PutU64(EvalCharPoly(set, Point(i)));
  }
  return writer.Take();
}

Result<SetDifference> CharPolyReconciler::DecodeDifference(
    const std::vector<uint8_t>& message,
    const std::vector<uint64_t>& local_set) const {
  ByteReader reader(message);
  uint64_t remote_size = 0;
  if (!reader.GetU64(&remote_size)) {
    return ParseError("char-poly message truncated (size)");
  }
  std::vector<uint64_t> remote_evals(max_diff_);
  for (size_t i = 0; i < max_diff_; ++i) {
    if (!reader.GetU64(&remote_evals[i])) {
      return ParseError("char-poly message truncated (evaluations)");
    }
  }

  // Ratio values f_i = chi_A(z_i) / chi_B(z_i).
  std::vector<uint64_t> points(max_diff_);
  std::vector<uint64_t> values(max_diff_);
  for (size_t i = 0; i < max_diff_; ++i) {
    points[i] = Point(i);
    uint64_t local_eval = EvalCharPoly(local_set, points[i]);
    // Points are above every element, so chi_B(z) != 0 always.
    values[i] = gf::Mul(remote_evals[i], gf::Inv(local_eval));
  }

  // Degree split: deg P - deg Q = |S_A| - |S_B|, deg P + deg Q <= max_diff,
  // matched in parity.
  int64_t delta = static_cast<int64_t>(remote_size) -
                  static_cast<int64_t>(local_set.size());
  int64_t m = static_cast<int64_t>(max_diff_);
  if (std::llabs(delta) > m) {
    return BoundExceeded("set size difference exceeds max_diff");
  }
  if (((m - delta) & 1) != 0) m -= 1;
  int deg_num = static_cast<int>((m + delta) / 2);
  int deg_den = static_cast<int>((m - delta) / 2);

  Result<RationalFunction> rf =
      InterpolateRational(points, values, deg_num, deg_den);
  if (!rf.ok()) return rf.status();

  Result<std::vector<uint64_t>> num_roots =
      FindRoots(rf.value().numerator, seed_);
  if (!num_roots.ok()) return num_roots.status();
  Result<std::vector<uint64_t>> den_roots =
      FindRoots(rf.value().denominator, seed_ + 1);
  if (!den_roots.ok()) return den_roots.status();

  SetDifference diff;
  diff.remote_only = std::move(num_roots).value();
  diff.local_only = std::move(den_roots).value();

  // Sanity: recovered elements must be in range, local_only must really be
  // local, and sizes must reconcile. These catch an underestimated bound
  // that slipped past the linear-factor certificate. Membership is a binary
  // search: in local_set itself when it is sorted (a canonical child always
  // is), else in a sorted copy.
  std::vector<uint64_t> sorted_copy;
  const std::vector<uint64_t>* local = &local_set;
  if (!std::is_sorted(local_set.begin(), local_set.end())) {
    sorted_copy = local_set;
    std::sort(sorted_copy.begin(), sorted_copy.end());
    local = &sorted_copy;
  }
  const auto is_local = [local](uint64_t e) {
    return std::binary_search(local->begin(), local->end(), e);
  };
  for (uint64_t e : diff.remote_only) {
    if (e > gf::kMaxElement || is_local(e)) {
      return VerificationFailure("recovered remote-only element implausible");
    }
  }
  for (uint64_t e : diff.local_only) {
    if (!is_local(e)) {
      return VerificationFailure("recovered local-only element not local");
    }
  }
  if (local_set.size() + diff.remote_only.size() - diff.local_only.size() !=
      remote_size) {
    return VerificationFailure("recovered difference inconsistent with size");
  }
  std::sort(diff.remote_only.begin(), diff.remote_only.end());
  std::sort(diff.local_only.begin(), diff.local_only.end());
  return diff;
}

}  // namespace setrec
