#include "charpoly/poly.h"

#include <cassert>

#include "charpoly/gf.h"

namespace setrec {

Poly::Poly(std::vector<uint64_t> coeffs) : coeffs_(std::move(coeffs)) {
  Trim();
}

void Poly::Trim() {
  while (!coeffs_.empty() && coeffs_.back() == 0) coeffs_.pop_back();
}

Poly Poly::Constant(uint64_t c) {
  Poly p;
  if (c % gf::kP != 0) p.coeffs_ = {c % gf::kP};
  return p;
}

Poly Poly::X() {
  Poly p;
  p.coeffs_ = {0, 1};
  return p;
}

Poly Poly::FromRoots(const std::vector<uint64_t>& roots) {
  Poly p = Constant(1);
  for (uint64_t r : roots) {
    Poly factor;
    factor.coeffs_ = {gf::Neg(r % gf::kP), 1};
    p = p.Mul(factor);
  }
  return p;
}

uint64_t Poly::LeadingCoeff() const {
  return coeffs_.empty() ? 0 : coeffs_.back();
}

uint64_t Poly::Eval(uint64_t z) const {
  uint64_t acc = 0;
  for (size_t i = coeffs_.size(); i-- > 0;) {
    acc = gf::Add(gf::Mul(acc, z), coeffs_[i]);
  }
  return acc;
}

Poly Poly::Add(const Poly& other) const {
  std::vector<uint64_t> out(std::max(coeffs_.size(), other.coeffs_.size()), 0);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = gf::Add(Coeff(i), other.Coeff(i));
  }
  return Poly(std::move(out));
}

Poly Poly::Sub(const Poly& other) const {
  std::vector<uint64_t> out(std::max(coeffs_.size(), other.coeffs_.size()), 0);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = gf::Sub(Coeff(i), other.Coeff(i));
  }
  return Poly(std::move(out));
}

Poly Poly::Mul(const Poly& other) const {
  if (IsZero() || other.IsZero()) return Poly();
  std::vector<uint64_t> out(coeffs_.size() + other.coeffs_.size() - 1, 0);
  for (size_t i = 0; i < coeffs_.size(); ++i) {
    if (coeffs_[i] == 0) continue;
    for (size_t j = 0; j < other.coeffs_.size(); ++j) {
      out[i + j] = gf::Add(out[i + j], gf::Mul(coeffs_[i], other.coeffs_[j]));
    }
  }
  return Poly(std::move(out));
}

Poly Poly::MulScalar(uint64_t c) const {
  c %= gf::kP;
  if (c == 0) return Poly();
  std::vector<uint64_t> out(coeffs_.size());
  for (size_t i = 0; i < coeffs_.size(); ++i) out[i] = gf::Mul(coeffs_[i], c);
  return Poly(std::move(out));
}

void Poly::DivMod(const Poly& divisor, Poly* quotient, Poly* remainder) const {
  assert(!divisor.IsZero());
  std::vector<uint64_t> rem = coeffs_;
  int dd = divisor.Degree();
  // A monic divisor (every PolyPowMod and root-splitting modulus) needs no
  // field inverse.
  const uint64_t lead = divisor.LeadingCoeff();
  const uint64_t lead_inv = lead == 1 ? 1 : gf::Inv(lead);
  std::vector<uint64_t> quot;
  if (Degree() >= dd) quot.assign(static_cast<size_t>(Degree() - dd) + 1, 0);
  for (int i = Degree(); i >= dd; --i) {
    uint64_t c = rem[static_cast<size_t>(i)];
    if (c == 0) continue;
    uint64_t q = gf::Mul(c, lead_inv);
    quot[static_cast<size_t>(i - dd)] = q;
    for (int j = 0; j <= dd; ++j) {
      const size_t at = static_cast<size_t>(i - dd + j);
      rem[at] = gf::Sub(rem[at], gf::Mul(q, divisor.coeffs_[static_cast<size_t>(j)]));
    }
  }
  *quotient = Poly(std::move(quot));
  *remainder = Poly(std::move(rem));
}

Poly Poly::Mod(const Poly& divisor) const {
  Poly q, r;
  DivMod(divisor, &q, &r);
  return r;
}

Poly Poly::Monic() const {
  if (IsZero() || LeadingCoeff() == 1) return *this;
  return MulScalar(gf::Inv(LeadingCoeff()));
}

Poly Poly::Derivative() const {
  if (coeffs_.size() <= 1) return Poly();
  std::vector<uint64_t> out(coeffs_.size() - 1);
  for (size_t i = 1; i < coeffs_.size(); ++i) {
    out[i - 1] = gf::Mul(coeffs_[i], i % gf::kP);
  }
  return Poly(std::move(out));
}

Poly PolyGcd(Poly a, Poly b) {
  while (!b.IsZero()) {
    Poly r = a.Mod(b);
    a = std::move(b);
    b = std::move(r);
  }
  return a.Monic();
}

Poly PolyPowMod(const Poly& base, uint64_t e, const Poly& m) {
  Poly result = Poly::Constant(1).Mod(m);
  Poly b = base.Mod(m);
  while (e > 0) {
    if (e & 1) result = result.Mul(b).Mod(m);
    b = b.Mul(b).Mod(m);
    e >>= 1;
  }
  return result;
}

uint64_t EvalCharPoly(const std::vector<uint64_t>& elements, uint64_t point) {
  uint64_t acc = 1;
  for (uint64_t e : elements) {
    acc = gf::Mul(acc, gf::Sub(point % gf::kP, e % gf::kP));
  }
  return acc;
}

}  // namespace setrec
