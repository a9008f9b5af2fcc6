#include "optim/stochastic_reconfiguration.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "linalg/cholesky.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "tensor/kernels.hpp"
#include "tensor/kernels_ref.hpp"

namespace vqmc {
namespace {

Matrix random_samples(std::size_t bs, std::size_t d, std::uint64_t seed) {
  rng::Xoshiro256 gen(seed);
  Matrix o(bs, d);
  for (std::size_t i = 0; i < o.size(); ++i)
    o.data()[i] = rng::uniform(gen, -1.0, 1.0);
  return o;
}

/// Coefficients that sum to zero, like the energy gradient's 2 (E - mean) / bs.
Vector zero_sum_coefficients(std::size_t bs, std::uint64_t seed) {
  rng::Xoshiro256 gen(seed);
  Vector c(bs);
  for (std::size_t k = 0; k < bs; ++k) c[k] = rng::uniform(gen, -1.0, 1.0);
  const Real m = mean(c.span());
  for (std::size_t k = 0; k < bs; ++k) c[k] -= m;
  return c;
}

/// g = O^T c, the gradient those coefficients give.
Vector gradient_of(const Matrix& o, const Vector& c) {
  Vector g(o.cols());
  ref::gemv_t(o, c.span(), g.span());
  return g;
}

/// The sample-space solve on an explicit O: the Gram O O^T, the solve for
/// y, and delta = O^T y.
SrReport natural_gradient(const StochasticReconfiguration& sr, const Matrix& o,
                          const Vector& c, Vector& delta) {
  Matrix gram(o.rows(), o.rows());
  gemm_nt(o, o, gram);
  Vector y(o.rows());
  const SrReport report = sr.solve(gram, c.span(), y.span());
  ref::gemv_t(o, y.span(), delta.span());
  return report;
}

/// Reference: form S = cov(O) + lambda I densely (d x d) and Cholesky-solve.
void reference_solution(const Matrix& o, Real lambda,
                        std::span<const Real> grad, std::span<Real> delta) {
  const std::size_t bs = o.rows(), d = o.cols();
  Vector o_bar(d);
  column_sum_accumulate(o, o_bar.span());
  scale(o_bar.span(), Real(1) / Real(bs));
  Matrix s(d, d);
  gemm_tn_accumulate(o, o, s);
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = 0; j < d; ++j)
      s(i, j) = s(i, j) / Real(bs) - o_bar[i] * o_bar[j];
    s(i, i) += lambda;
  }
  ASSERT_TRUE(linalg::solve_spd(s, grad, delta));
}

/// max |a - b| / max |b|.
Real max_relative_difference(const Vector& a, const Vector& b) {
  Real diff = 0, scale = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    diff = std::max(diff, std::abs(a[i] - b[i]));
    scale = std::max(scale, std::abs(b[i]));
  }
  return diff / scale;
}

// The sample-space solve against the dense d x d solve it replaces.
TEST(StochasticReconfiguration, DensePathMatchesReference) {
  const std::size_t bs = 20, d = 8;
  const Matrix o = random_samples(bs, d, 1);
  const Vector c = zero_sum_coefficients(bs, 2);
  const Vector grad = gradient_of(o, c);
  Vector delta(d), expected(d);

  SrConfig cfg;
  cfg.regularization = 1e-3;
  StochasticReconfiguration sr(cfg);
  EXPECT_FALSE(natural_gradient(sr, o, c, delta).breakdown);
  reference_solution(o, cfg.regularization, grad.span(), expected.span());
  for (std::size_t i = 0; i < d; ++i) EXPECT_NEAR(delta[i], expected[i], 1e-9);
}

TEST(StochasticReconfiguration, SampleSpaceSolveMatchesDenseSolveBelowAndAboveD) {
  // bs < d (S is rank deficient, lambda carries the solve) and bs > d.
  struct Shape {
    std::size_t bs, d;
  };
  for (const Shape shape : {Shape{64, 300}, Shape{128, 512}, Shape{300, 64},
                            Shape{512, 200}}) {
    const Matrix o = random_samples(shape.bs, shape.d, 10 + shape.bs);
    const Vector c = zero_sum_coefficients(shape.bs, 20 + shape.d);
    const Vector grad = gradient_of(o, c);
    Vector delta(shape.d), expected(shape.d);
    StochasticReconfiguration sr;
    EXPECT_FALSE(natural_gradient(sr, o, c, delta).breakdown);
    reference_solution(o, sr.config().regularization, grad.span(),
                       expected.span());
    EXPECT_LE(max_relative_difference(delta, expected), 1e-10)
        << "bs=" << shape.bs << " d=" << shape.d;
  }
}

TEST(StochasticReconfiguration, IdentityLimitForLargeRegularization) {
  // For lambda >> ||S||, delta ~= grad / lambda.
  const std::size_t bs = 10, d = 5;
  const Matrix o = random_samples(bs, d, 5);
  const Vector c = zero_sum_coefficients(bs, 6);
  const Vector grad = gradient_of(o, c);
  Vector delta(d);
  SrConfig cfg;
  cfg.regularization = 1e6;
  StochasticReconfiguration sr(cfg);
  natural_gradient(sr, o, c, delta);
  for (std::size_t i = 0; i < d; ++i)
    EXPECT_NEAR(delta[i], grad[i] / 1e6, 1e-5 * std::abs(grad[i] / 1e6));
}

TEST(StochasticReconfiguration, SolutionSatisfiesTheLinearSystem) {
  const std::size_t bs = 25, d = 6;
  const Matrix o = random_samples(bs, d, 6);
  const Vector c = zero_sum_coefficients(bs, 7);
  const Vector grad = gradient_of(o, c);
  Vector delta(d);
  SrConfig cfg;
  StochasticReconfiguration sr(cfg);
  natural_gradient(sr, o, c, delta);

  // Verify (S + lambda I) delta == grad by applying S through O.
  Vector o_bar(d);
  column_sum_accumulate(o, o_bar.span());
  scale(o_bar.span(), Real(1) / Real(bs));
  Vector ov(bs), s_delta(d);
  ref::gemv(o, delta.span(), ov.span());
  ref::gemv_t(o, ov.span(), s_delta.span());
  const Real ob_v = dot(o_bar.span(), delta.span());
  for (std::size_t i = 0; i < d; ++i) {
    const Real lhs = s_delta[i] / Real(bs) - o_bar[i] * ob_v +
                     cfg.regularization * delta[i];
    EXPECT_NEAR(lhs, grad[i], 1e-8);
  }
}

TEST(StochasticReconfiguration, NonFiniteInputsReportBreakdownNotNaN) {
  const std::size_t bs = 10, d = 4;
  Matrix o = random_samples(bs, d, 8);
  Vector c = zero_sum_coefficients(bs, 9);
  StochasticReconfiguration sr;
  Matrix gram(bs, bs);
  Vector y(bs);

  // NaN coefficient -> breakdown, y zeroed (never NaN).
  c[1] = std::numeric_limits<Real>::quiet_NaN();
  gemm_nt(o, o, gram);
  SrReport report = sr.solve(gram, c.span(), y.span());
  EXPECT_TRUE(report.breakdown);
  EXPECT_FALSE(report.reason.empty());
  for (std::size_t k = 0; k < bs; ++k) EXPECT_EQ(y[k], 0.0);

  // Non-finite per-sample log-derivatives poison the Gram -> breakdown too.
  c = zero_sum_coefficients(bs, 9);
  o(3, 2) = std::numeric_limits<Real>::infinity();
  gemm_nt(o, o, gram);
  y.fill(1);
  report = sr.solve(gram, c.span(), y.span());
  EXPECT_TRUE(report.breakdown);
  EXPECT_NE(report.reason.find("non-finite"), std::string::npos);
  for (std::size_t k = 0; k < bs; ++k) EXPECT_EQ(y[k], 0.0);
}

TEST(StochasticReconfiguration, IndefiniteGramReportsCholeskyBreakdown) {
  // A finite Gram that no O can produce: -1e6 I centres to -1e6 C, so
  // K_c / bs + lambda I is negative on every zero-sum direction.
  const std::size_t bs = 12;
  Matrix gram(bs, bs);
  for (std::size_t k = 0; k < bs; ++k) gram(k, k) = -1e6;
  const Vector c = zero_sum_coefficients(bs, 10);
  Vector y(bs);
  const SrReport report = StochasticReconfiguration().solve(gram, c.span(),
                                                            y.span());
  EXPECT_TRUE(report.breakdown);
  EXPECT_NE(report.reason.find("not positive definite"), std::string::npos)
      << report.reason;
  for (std::size_t k = 0; k < bs; ++k) EXPECT_EQ(y[k], 0.0);
}

TEST(StochasticReconfiguration, SolutionHasZeroMean) {
  // K_c 1 = 0 and sum(c) = 0 give sum(y) = 0, so O_c^T y = O^T y.
  const std::size_t bs = 40, d = 30;
  const Matrix o = random_samples(bs, d, 11);
  const Vector c = zero_sum_coefficients(bs, 12);
  Matrix gram(bs, bs);
  gemm_nt(o, o, gram);
  Vector y(bs);
  ASSERT_FALSE(StochasticReconfiguration().solve(gram, c.span(), y.span())
                   .breakdown);
  Real scale = 0;
  for (std::size_t k = 0; k < bs; ++k) scale = std::max(scale, std::abs(y[k]));
  EXPECT_LE(std::abs(sum(y.span())), 1e-12 * scale * Real(bs));
}

TEST(StochasticReconfiguration, RejectsInvalidInput) {
  EXPECT_THROW(StochasticReconfiguration({.regularization = 0.0}), Error);
  StochasticReconfiguration sr;
  Matrix one(1, 1);  // bs < 2
  Vector c1(1), y1(1);
  EXPECT_THROW(sr.solve(one, c1.span(), y1.span()), Error);
  Matrix gram(5, 5);
  Vector wrong(3), y(5);
  EXPECT_THROW(sr.solve(gram, wrong.span(), y.span()), Error);
  Matrix not_square(5, 4);
  Vector c(5);
  EXPECT_THROW(sr.solve(not_square, c.span(), y.span()), Error);
}

}  // namespace
}  // namespace vqmc
