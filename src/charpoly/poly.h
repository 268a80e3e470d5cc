#ifndef SETREC_CHARPOLY_POLY_H_
#define SETREC_CHARPOLY_POLY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace setrec {

/// Dense polynomials over GF(2^61 - 1), coefficients in ascending degree
/// order with no trailing zeros (the zero polynomial is an empty vector).
/// Degrees in the reconciliation protocols are O(d), so schoolbook
/// multiplication and long division are the right tools (the paper's stated
/// costs come from Gaussian elimination and multipoint evaluation, both of
/// which dominate these).
class Poly {
 public:
  /// The zero polynomial.
  Poly() = default;
  /// From coefficients (ascending); trailing zeros are trimmed.
  explicit Poly(std::vector<uint64_t> coeffs);

  /// The constant polynomial c.
  static Poly Constant(uint64_t c);
  /// The monomial x.
  static Poly X();
  /// prod_i (x - roots[i]), the characteristic polynomial of a set.
  static Poly FromRoots(const std::vector<uint64_t>& roots);

  bool IsZero() const { return coeffs_.empty(); }
  /// Degree; -1 for the zero polynomial.
  int Degree() const { return static_cast<int>(coeffs_.size()) - 1; }
  const std::vector<uint64_t>& coeffs() const { return coeffs_; }
  /// Coefficient of x^i (0 beyond the degree).
  uint64_t Coeff(size_t i) const { return i < coeffs_.size() ? coeffs_[i] : 0; }
  uint64_t LeadingCoeff() const;

  /// Horner evaluation at z.
  uint64_t Eval(uint64_t z) const;

  Poly Add(const Poly& other) const;
  Poly Sub(const Poly& other) const;
  Poly Mul(const Poly& other) const;
  Poly MulScalar(uint64_t c) const;
  /// Quotient and remainder; divisor must be nonzero. A monic divisor
  /// costs no field inverse (any other costs one gf::Inv).
  void DivMod(const Poly& divisor, Poly* quotient, Poly* remainder) const;
  Poly Mod(const Poly& divisor) const;
  /// Scales so the leading coefficient is 1 (zero stays zero); a monic
  /// polynomial is returned as it is, with no field inverse.
  Poly Monic() const;
  /// Formal derivative.
  Poly Derivative() const;

  bool operator==(const Poly&) const = default;

 private:
  void Trim();
  std::vector<uint64_t> coeffs_;
};

/// Monic gcd(a, b) by the Euclidean algorithm.
Poly PolyGcd(Poly a, Poly b);

/// base^e mod m by square-and-multiply over polynomials.
Poly PolyPowMod(const Poly& base, uint64_t e, const Poly& m);

/// Evaluates the characteristic polynomial prod (z - e) of `elements`
/// directly at `point` in O(|elements|), without forming coefficients —
/// this is how parties compute their protocol messages.
uint64_t EvalCharPoly(const std::vector<uint64_t>& elements, uint64_t point);

}  // namespace setrec

#endif  // SETREC_CHARPOLY_POLY_H_
