#include "charpoly/root_finding.h"

#include "charpoly/gf.h"
#include "hashing/random.h"

namespace setrec {

namespace {

/// Recursively splits monic `f`, known to be a product of distinct linear
/// factors, appending its roots to `out`.
void SplitRoots(const Poly& f, Rng* rng, std::vector<uint64_t>* out) {
  int deg = f.Degree();
  if (deg <= 0) return;
  if (deg == 1) {
    // f = x + c -> root = -c.
    out->push_back(gf::Neg(f.Coeff(0)));
    return;
  }
  if (deg == 2) {
    // Quadratic formula: x^2 + bx + c, roots = (-b ± sqrt(b^2-4c)) / 2.
    uint64_t b = f.Coeff(1);
    uint64_t c = f.Coeff(0);
    uint64_t disc = gf::Sub(gf::Mul(b, b), gf::Mul(4, c));
    // sqrt via exponent (p+1)/4 works because p = 2^61-1 ≡ 3 (mod 4).
    uint64_t s = gf::Pow(disc, (gf::kP + 1) / 4);
    if (gf::Mul(s, s) == disc) {
      uint64_t inv2 = gf::Inv(2);
      out->push_back(gf::Mul(gf::Sub(s, b), inv2));
      out->push_back(gf::Mul(gf::Sub(gf::Neg(b), s), inv2));
      return;
    }
    // No square root: fall through to random splitting (which will fail to
    // make progress and the caller's certification catches it), but this
    // should not happen for certified inputs.
  }
  // Random split: g = gcd((x + a)^((p-1)/2) - 1, f) separates the roots r
  // with (r + a) a quadratic residue from the rest; each root lands on
  // either side with probability ~1/2.
  for (int attempt = 0; attempt < 64; ++attempt) {
    uint64_t a = rng->NextU64() % gf::kP;
    Poly shifted({a, 1});  // x + a.
    Poly h = PolyPowMod(shifted, (gf::kP - 1) / 2, f);
    h = h.Sub(Poly::Constant(1));
    Poly g = PolyGcd(h, f);
    if (g.Degree() > 0 && g.Degree() < deg) {
      Poly q, r;
      f.DivMod(g, &q, &r);
      SplitRoots(g, rng, out);
      SplitRoots(q.Monic(), rng, out);
      return;
    }
  }
  // Statistically unreachable for certified inputs (each attempt splits
  // with probability >= 1/2); leave roots unreported so the caller's
  // degree check fails loudly.
}

}  // namespace

Result<std::vector<uint64_t>> FindRoots(const Poly& f, uint64_t seed) {
  if (f.IsZero()) {
    return VerificationFailure("root finding on the zero polynomial");
  }
  Poly monic = f.Monic();
  int deg = monic.Degree();
  std::vector<uint64_t> roots;
  if (deg == 0) return roots;
  if (deg == 1) {
    // x + c always splits: its root -c is in the field, so by Fermat
    // x^p - x vanishes there and the certificate below cannot fail.
    roots.push_back(gf::Neg(monic.Coeff(0)));
    return roots;
  }

  // Certify "product of distinct linear factors": f | x^p - x exactly when
  // f is squarefree with all roots in the field. Compute x^p mod f, then
  // gcd(x^p - x, f) must equal f.
  Poly xp = PolyPowMod(Poly::X(), gf::kP, monic);
  Poly xp_minus_x = xp.Sub(Poly::X());
  Poly g = PolyGcd(xp_minus_x, monic);
  if (g.Degree() != deg) {
    return VerificationFailure(
        "polynomial is not a product of distinct linear factors "
        "(difference bound too small?)");
  }

  Rng rng(DeriveSeed(seed, /*tag=*/0x726f6f74ull));  // "root"
  roots.reserve(static_cast<size_t>(deg));
  SplitRoots(monic, &rng, &roots);
  if (static_cast<int>(roots.size()) != deg) {
    return VerificationFailure("root splitting did not converge");
  }
  return roots;
}

}  // namespace setrec
