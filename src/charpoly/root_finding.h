#ifndef SETREC_CHARPOLY_ROOT_FINDING_H_
#define SETREC_CHARPOLY_ROOT_FINDING_H_

#include <cstdint>
#include <vector>

#include "charpoly/poly.h"
#include "util/status.h"

namespace setrec {

/// Finds all roots of `f` over GF(2^61 - 1), assuming f is (expected to be)
/// a product of distinct linear factors — which is exactly the promise for
/// characteristic polynomials of sets. Uses Cantor–Zassenhaus equal-degree
/// splitting: compute gcd(f, x^p - x) to certify the split-into-distinct-
/// linear-factors property, then split recursively with random
/// (x + a)^((p-1)/2) - 1 gcds. Returns kVerificationFailure if f is not a
/// product of distinct linear factors (this is how an underestimated
/// difference bound d is detected). A degree-1 f always splits, so its
/// root is returned with no certificate. `seed` drives the randomized
/// splitting.
Result<std::vector<uint64_t>> FindRoots(const Poly& f, uint64_t seed);

}  // namespace setrec

#endif  // SETREC_CHARPOLY_ROOT_FINDING_H_
