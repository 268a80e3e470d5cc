#include "charpoly/root_finding.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "charpoly/gf.h"
#include "charpoly/poly.h"
#include "charpoly/rational_interpolation.h"
#include "hashing/random.h"

namespace setrec {
namespace {

std::vector<uint64_t> Sorted(std::vector<uint64_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(FindRootsTest, Linear) {
  Poly p = Poly::FromRoots({42});
  Result<std::vector<uint64_t>> roots = FindRoots(p, 1);
  ASSERT_TRUE(roots.ok());
  EXPECT_EQ(roots.value(), (std::vector<uint64_t>{42}));
}

TEST(FindRootsTest, LinearRootsNeedNoCertificate) {
  // A degree-1 input returns its root with no x^p certificate: for monic
  // and non-monic x + c the root is -c / lead, as the certified path gave,
  // and the certificate it skips (gcd(x^p - x, f) of degree 1) holds.
  Rng rng(11);
  for (int trial = 0; trial < 40; ++trial) {
    const uint64_t c = trial == 0 ? 0 : rng.NextU64() % gf::kP;
    const uint64_t lead =
        trial % 2 == 0 ? 1 : 1 + rng.NextU64() % (gf::kP - 1);
    const Poly f({c, lead});
    Result<std::vector<uint64_t>> roots =
        FindRoots(f, 100 + static_cast<uint64_t>(trial));
    ASSERT_TRUE(roots.ok());
    const uint64_t root = gf::Mul(gf::Neg(c), gf::Inv(lead));
    EXPECT_EQ(roots.value(), (std::vector<uint64_t>{root}));
    EXPECT_EQ(f.Eval(root), 0u);
    const Poly monic = f.Monic();
    const Poly xp = PolyPowMod(Poly::X(), gf::kP, monic);
    EXPECT_EQ(PolyGcd(xp.Sub(Poly::X()), monic), monic);
  }
}

TEST(FindRootsTest, Quadratic) {
  Poly p = Poly::FromRoots({7, 9});
  Result<std::vector<uint64_t>> roots = FindRoots(p, 2);
  ASSERT_TRUE(roots.ok());
  EXPECT_EQ(Sorted(roots.value()), (std::vector<uint64_t>{7, 9}));
}

TEST(FindRootsTest, ConstantHasNoRoots) {
  Result<std::vector<uint64_t>> roots = FindRoots(Poly::Constant(5), 3);
  ASSERT_TRUE(roots.ok());
  EXPECT_TRUE(roots.value().empty());
}

TEST(FindRootsTest, ZeroPolynomialRejected) {
  Result<std::vector<uint64_t>> roots = FindRoots(Poly(), 4);
  EXPECT_FALSE(roots.ok());
}

TEST(FindRootsTest, RepeatedRootRejected) {
  // (x-3)^2 is not squarefree: the certificate must fail.
  Poly p = Poly::FromRoots({3, 3});
  Result<std::vector<uint64_t>> roots = FindRoots(p, 5);
  EXPECT_FALSE(roots.ok());
  EXPECT_EQ(roots.status().code(), StatusCode::kVerificationFailure);
}

TEST(FindRootsTest, IrreducibleFactorRejected) {
  // x^2 + 1 has no roots iff -1 is a non-residue; p ≡ 3 (mod 4) so it is.
  Poly p({1, 0, 1});
  Result<std::vector<uint64_t>> roots = FindRoots(p, 6);
  EXPECT_FALSE(roots.ok());
}

TEST(FindRootsTest, NonMonicInputAccepted) {
  Poly p = Poly::FromRoots({100, 200}).MulScalar(7);
  Result<std::vector<uint64_t>> roots = FindRoots(p, 7);
  ASSERT_TRUE(roots.ok());
  EXPECT_EQ(Sorted(roots.value()), (std::vector<uint64_t>{100, 200}));
}

class FindRootsSweep : public ::testing::TestWithParam<int> {};

TEST_P(FindRootsSweep, RandomRootSets) {
  const int degree = GetParam();
  Rng rng(static_cast<uint64_t>(degree) * 17 + 1);
  std::set<uint64_t> root_set;
  while (root_set.size() < static_cast<size_t>(degree)) {
    root_set.insert(rng.NextU64() % (1ull << 60));
  }
  std::vector<uint64_t> roots(root_set.begin(), root_set.end());
  Poly p = Poly::FromRoots(roots);
  Result<std::vector<uint64_t>> found =
      FindRoots(p, static_cast<uint64_t>(degree));
  ASSERT_TRUE(found.ok()) << found.status().ToString();
  EXPECT_EQ(Sorted(found.value()), roots);
}

INSTANTIATE_TEST_SUITE_P(Degrees, FindRootsSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 13, 21, 34, 55));

TEST(SolveLinearSystemTest, TwoByTwo) {
  // x + y = 3, x - y = 1 -> x = 2, y = 1.
  std::vector<std::vector<uint64_t>> a = {{1, 1}, {1, gf::kP - 1}};
  std::vector<uint64_t> b = {3, 1};
  Result<std::vector<uint64_t>> x = SolveLinearSystem(a, b);
  ASSERT_TRUE(x.ok());
  EXPECT_EQ(x.value(), (std::vector<uint64_t>{2, 1}));
}

TEST(SolveLinearSystemTest, SingularConsistentSolvable) {
  // Duplicate equation: infinitely many solutions; any one is acceptable.
  std::vector<std::vector<uint64_t>> a = {{1, 1}, {2, 2}};
  std::vector<uint64_t> b = {3, 6};
  Result<std::vector<uint64_t>> x = SolveLinearSystem(a, b);
  ASSERT_TRUE(x.ok());
  EXPECT_EQ(gf::Add(x.value()[0], x.value()[1]), 3u);
}

TEST(SolveLinearSystemTest, InconsistentRejected) {
  std::vector<std::vector<uint64_t>> a = {{1, 1}, {2, 2}};
  std::vector<uint64_t> b = {3, 7};
  Result<std::vector<uint64_t>> x = SolveLinearSystem(a, b);
  EXPECT_FALSE(x.ok());
}

TEST(InterpolateRationalTest, ExactDegrees) {
  // P = (x-5)(x-6), Q = (x-9). Sample P/Q at points away from roots.
  Poly p = Poly::FromRoots({5, 6});
  Poly q = Poly::FromRoots({9});
  std::vector<uint64_t> points, values;
  for (uint64_t i = 0; i < 3; ++i) {
    uint64_t z = 1000 + i;
    points.push_back(z);
    values.push_back(gf::Mul(p.Eval(z), gf::Inv(q.Eval(z))));
  }
  Result<RationalFunction> rf = InterpolateRational(points, values, 2, 1);
  ASSERT_TRUE(rf.ok());
  EXPECT_EQ(rf.value().numerator, p);
  EXPECT_EQ(rf.value().denominator, q);
}

TEST(InterpolateRationalTest, OverestimatedDegreesReduced) {
  // True degrees (1, 0); ask for (3, 2): gcd stripping must recover.
  Poly p = Poly::FromRoots({17});
  std::vector<uint64_t> points, values;
  for (uint64_t i = 0; i < 5; ++i) {
    uint64_t z = 2000 + i;
    points.push_back(z);
    values.push_back(p.Eval(z));
  }
  Result<RationalFunction> rf = InterpolateRational(points, values, 3, 2);
  ASSERT_TRUE(rf.ok());
  EXPECT_EQ(rf.value().numerator, p);
  EXPECT_EQ(rf.value().denominator, Poly::Constant(1));
}

TEST(InterpolateRationalTest, NotEnoughPointsRejected) {
  std::vector<uint64_t> points = {1, 2};
  std::vector<uint64_t> values = {1, 1};
  Result<RationalFunction> rf = InterpolateRational(points, values, 2, 1);
  EXPECT_FALSE(rf.ok());
}

TEST(InterpolateRationalTest, BothConstant) {
  std::vector<uint64_t> points, values;
  Result<RationalFunction> rf = InterpolateRational(points, values, 0, 0);
  ASSERT_TRUE(rf.ok());
  EXPECT_EQ(rf.value().numerator, Poly::Constant(1));
  EXPECT_EQ(rf.value().denominator, Poly::Constant(1));
}

}  // namespace
}  // namespace setrec
