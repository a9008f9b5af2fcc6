#include "tensor/kernels.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "tensor/kernels_ref.hpp"

namespace vqmc {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  rng::Xoshiro256 gen(seed);
  Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i)
    m.data()[i] = rng::uniform(gen, -1.0, 1.0);
  return m;
}

/// Naive reference O(mnk) matmul with explicit transpose flags.
Matrix reference_gemm(const Matrix& a, bool ta, const Matrix& b, bool tb) {
  const std::size_t m = ta ? a.cols() : a.rows();
  const std::size_t k = ta ? a.rows() : a.cols();
  const std::size_t n = tb ? b.rows() : b.cols();
  Matrix c(m, n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      Real acc = 0;
      for (std::size_t l = 0; l < k; ++l) {
        const Real av = ta ? a(l, i) : a(i, l);
        const Real bv = tb ? b(j, l) : b(l, j);
        acc += av * bv;
      }
      c(i, j) = acc;
    }
  return c;
}

void expect_matrix_near(const Matrix& x, const Matrix& y, Real tol = 1e-12) {
  ASSERT_EQ(x.rows(), y.rows());
  ASSERT_EQ(x.cols(), y.cols());
  for (std::size_t i = 0; i < x.size(); ++i)
    ASSERT_NEAR(x.data()[i], y.data()[i], tol) << "flat index " << i;
}

TEST(Kernels, DotAndAxpy) {
  Vector x{1, 2, 3}, y{4, 5, 6};
  EXPECT_DOUBLE_EQ(dot(x.span(), y.span()), 32.0);
  axpy(2.0, x.span(), y.span());
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[2], 12.0);
}

TEST(Kernels, DotSizeMismatchThrows) {
  Vector x(2), y(3);
  EXPECT_THROW(dot(x.span(), y.span()), Error);
}

TEST(Kernels, SumMeanVariance) {
  Vector v{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(sum(v.span()), 10.0);
  EXPECT_DOUBLE_EQ(mean(v.span()), 2.5);
  EXPECT_DOUBLE_EQ(variance(v.span()), 1.25);
  Vector empty;
  EXPECT_DOUBLE_EQ(mean(empty.span()), 0.0);
  EXPECT_DOUBLE_EQ(variance(empty.span()), 0.0);
}

TEST(Kernels, ScaleInPlace) {
  Vector v{2, -4};
  scale(v.span(), 0.5);
  EXPECT_DOUBLE_EQ(v[0], 1.0);
  EXPECT_DOUBLE_EQ(v[1], -2.0);
}

// ref::gemv and ref::gemv_t are the tests' matrix-vector oracles (the
// dense operators of the Lanczos, exact-diagonalization and SR tests); pin
// them against an inline sum.
TEST(Kernels, GemvMatchesReference) {
  const Matrix a = random_matrix(5, 7, 1);
  Vector x(7), y(5);
  rng::Xoshiro256 gen(2);
  for (std::size_t i = 0; i < 7; ++i) x[i] = rng::uniform(gen, -1.0, 1.0);
  ref::gemv(a, x.span(), y.span());
  for (std::size_t r = 0; r < 5; ++r) {
    Real acc = 0;
    for (std::size_t c = 0; c < 7; ++c) acc += a(r, c) * x[c];
    EXPECT_NEAR(y[r], acc, 1e-12);
  }
}

TEST(Kernels, GemvTransposedMatchesReference) {
  const Matrix a = random_matrix(5, 7, 3);
  Vector x(5), y(7);
  rng::Xoshiro256 gen(4);
  for (std::size_t i = 0; i < 5; ++i) x[i] = rng::uniform(gen, -1.0, 1.0);
  ref::gemv_t(a, x.span(), y.span());
  for (std::size_t c = 0; c < 7; ++c) {
    Real acc = 0;
    for (std::size_t r = 0; r < 5; ++r) acc += a(r, c) * x[r];
    EXPECT_NEAR(y[c], acc, 1e-12);
  }
}

TEST(Kernels, GemmNtMatchesReference) {
  const Matrix a = random_matrix(4, 6, 7);
  const Matrix b = random_matrix(3, 6, 8);
  Matrix c(4, 3);
  gemm_nt(a, b, c);
  expect_matrix_near(c, reference_gemm(a, false, b, true));
}

TEST(Kernels, GemmTnAccumulates) {
  const Matrix a = random_matrix(5, 4, 9);
  const Matrix b = random_matrix(5, 3, 10);
  Matrix c(4, 3);
  c.fill(1.0);
  gemm_tn_accumulate(a, b, c);
  Matrix expected = reference_gemm(a, true, b, false);
  for (std::size_t i = 0; i < expected.size(); ++i)
    expected.data()[i] += 1.0;
  expect_matrix_near(c, expected);
}

TEST(Kernels, GemmShapeMismatchThrows) {
  Matrix a(2, 3), b(5, 4), c(2, 5);
  EXPECT_THROW(gemm_nt(a, b, c), Error);
}

TEST(Kernels, AddRowBroadcast) {
  Matrix a(2, 3);
  Vector b{1, 2, 3};
  add_row_broadcast(a, b.span());
  EXPECT_DOUBLE_EQ(a(0, 0), 1);
  EXPECT_DOUBLE_EQ(a(1, 2), 3);
}

TEST(Kernels, ReluAndBackward) {
  Matrix a(1, 4);
  a(0, 0) = -1;
  a(0, 1) = 0;
  a(0, 2) = 2;
  a(0, 3) = -0.5;
  Matrix pre = a;
  relu_inplace(a);
  EXPECT_DOUBLE_EQ(a(0, 0), 0);
  EXPECT_DOUBLE_EQ(a(0, 1), 0);
  EXPECT_DOUBLE_EQ(a(0, 2), 2);

  Matrix grad(1, 4);
  grad.fill(1.0);
  relu_backward_inplace(pre, grad);
  EXPECT_DOUBLE_EQ(grad(0, 0), 0);  // pre <= 0 kills the gradient
  EXPECT_DOUBLE_EQ(grad(0, 1), 0);
  EXPECT_DOUBLE_EQ(grad(0, 2), 1);
}

TEST(Kernels, SigmoidStableAtExtremes) {
  EXPECT_NEAR(sigmoid(0.0), 0.5, 1e-15);
  EXPECT_NEAR(sigmoid(800.0), 1.0, 1e-15);
  EXPECT_NEAR(sigmoid(-800.0), 0.0, 1e-15);
  EXPECT_TRUE(std::isfinite(sigmoid(-1e6)));
  Matrix a(1, 2);
  a(0, 0) = 100;
  a(0, 1) = -100;
  sigmoid_inplace(a);
  EXPECT_NEAR(a(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(a(0, 1), 0.0, 1e-12);
}

TEST(Kernels, LogCoshMatchesDirectFormSmallAndIsStableLarge) {
  // The scalar oracle of sum_log_cosh.
  for (Real x : {-2.0, -0.3, 0.0, 0.7, 3.0})
    EXPECT_NEAR(ref::log_cosh(x), std::log(std::cosh(x)), 1e-12);
  // Large arguments: log cosh x ~ |x| - log 2.
  EXPECT_NEAR(ref::log_cosh(1000.0), 1000.0 - std::log(2.0), 1e-9);
  EXPECT_TRUE(std::isfinite(ref::log_cosh(1e8)));
}

TEST(Kernels, ColumnSumAccumulate) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 3;
  a(1, 1) = 4;
  Vector out(2);
  out[0] = 10;
  column_sum_accumulate(a, out.span());
  EXPECT_DOUBLE_EQ(out[0], 14);
  EXPECT_DOUBLE_EQ(out[1], 6);
}

TEST(Kernels, PairwiseSumExactOnRepresentablePatternAtMillionElements) {
  // Exactness sanity check at batch >= 1e6: every intermediate in the
  // period-4 pattern {1e8, 0.5, -1e8, 1.5} (chunk sum exactly 2.0) is
  // representable in double, so any accumulation-order bug shows up as a
  // hard mismatch rather than tolerable noise.
  constexpr std::size_t kCount = 1u << 20;  // 1,048,576 elements
  Vector v(kCount);
  for (std::size_t i = 0; i < kCount; i += 4) {
    v[i] = 1e8;
    v[i + 1] = 0.5;
    v[i + 2] = -1e8;
    v[i + 3] = 1.5;
  }
  const Real exact_sum = Real(kCount / 4) * 2.0;
  const Real exact_mean = exact_sum / Real(kCount);
  EXPECT_NEAR(sum(v.span()), exact_sum, 1e-6);
  EXPECT_NEAR(mean(v.span()), exact_mean, 1e-12);

  // Variance: constant shift should not perturb the result. E[x]=0.5 per
  // the pattern; use a same-shape batch with values {1,2,3,4} repeating:
  // mean 2.5, population variance 1.25, exactly.
  for (std::size_t i = 0; i < kCount; ++i) v[i] = Real(1 + (i % 4));
  EXPECT_NEAR(mean(v.span()), 2.5, 1e-12);
  EXPECT_NEAR(variance(v.span()), 1.25, 1e-10);
}

TEST(Kernels, PairwiseSumMatchesLongDoubleReference) {
  // Tolerance regression at batch >= 1e6: compare against a long-double
  // reference on a random batch shaped like local energies.
  constexpr std::size_t kCount = 1'200'000;
  Vector v(kCount);
  rng::Xoshiro256 gen(99);
  for (std::size_t i = 0; i < kCount; ++i)
    v[i] = rng::uniform(gen, -50.0, 50.0);
  long double reference = 0.0L;
  for (std::size_t i = 0; i < kCount; ++i) reference += (long double)v[i];
  const Real got = sum(v.span());
  // Pairwise error bound ~ O(log2 N) ulps of the running magnitude; give
  // generous slack while still rejecting naive O(N)-ulp drift.
  EXPECT_NEAR(got, (Real)reference, 1e-7);

  long double mean_ref = reference / (long double)kCount;
  long double var_ref = 0.0L;
  for (std::size_t i = 0; i < kCount; ++i) {
    const long double d = (long double)v[i] - mean_ref;
    var_ref += d * d;
  }
  var_ref /= (long double)kCount;
  EXPECT_NEAR(mean(v.span()), (Real)mean_ref, 1e-12);
  EXPECT_NEAR(variance(v.span()), (Real)var_ref, 1e-9);
}

// ---------------------------------------------------------------------------
// Prefix-length (masked) kernels.
// ---------------------------------------------------------------------------

/// Random prefix lengths for a rows x cols operand: row 0 empty, row 1
/// whole, the rest uniform in [0, cols].
std::vector<std::size_t> random_lengths(std::size_t rows, std::size_t cols,
                                        std::uint64_t seed) {
  rng::Xoshiro256 gen(seed);
  std::vector<std::size_t> len(rows);
  for (std::size_t& l : len) l = std::size_t(rng::uniform_index(gen, cols + 1));
  if (rows > 0) len[0] = 0;
  if (rows > 1) len[1] = cols;
  return len;
}

void expect_matrix_bitwise_equal(const Matrix& got, const Matrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(got.data()[i], want.data()[i]) << "flat index " << i;
}

// The prefix kernels follow the tolerance contract of kernels.hpp: SIMD
// accumulation reorders the sum (vector lanes + FMA), so they agree with
// the scalar reference within the documented ULP bound instead of
// bit-for-bit.  Values here are O(1) with k <= 23 terms, so 1e-12 is many
// orders above the 2*L*eps*sum|t| bound.  What stays EXACT: entries past
// a row's prefix are never read or touched, and each kernel is
// bitwise-deterministic run to run.
constexpr Real kPrefixTol = 1e-12;

TEST(Kernels, GemmNnExtentsMatchesScalarReferenceOnMaskedMatrix) {
  const std::size_t m = 9, k = 13, n = 15;
  const std::vector<std::size_t> len = random_lengths(k, n, 51);
  const Matrix a = random_matrix(m, k, 52);
  // Unmasked: the entries past each row's prefix must not be read.
  const Matrix b = random_matrix(k, n, 53);

  Matrix want(m, n), got(m, n), again(m, n);
  ref::gemm_nn_prefix(a, b, len, want);
  gemm_nn_prefix(a, b, len, got);
  expect_matrix_near(got, want, kPrefixTol);

  gemm_nn_prefix(a, b, len, again);  // deterministic
  expect_matrix_bitwise_equal(got, again);
}

TEST(Kernels, GemmTnAccumulateExtentsMatchesReferenceInsideAndPreservesOutside) {
  const std::size_t k = 12, m = 8, n = 10;
  const std::vector<std::size_t> len = random_lengths(m, n, 61);
  const Matrix a = random_matrix(k, m, 62);
  const Matrix b = random_matrix(k, n, 63);

  const Matrix c0 = random_matrix(m, n, 64);
  Matrix want = c0, got = c0, again = c0;
  ref::gemm_tn_accumulate_prefix(a, b, len, want);
  gemm_tn_accumulate_prefix(a, b, len, got);
  gemm_tn_accumulate_prefix(a, b, len, again);
  for (std::size_t r = 0; r < m; ++r)
    for (std::size_t j = 0; j < n; ++j) {
      if (j < len[r])
        EXPECT_NEAR(got(r, j), want(r, j), kPrefixTol) << r << "," << j;
      else
        EXPECT_EQ(got(r, j), c0(r, j)) << r << "," << j;  // untouched
      EXPECT_EQ(got(r, j), again(r, j)) << r << "," << j;  // deterministic
    }
}

TEST(Kernels, ViewOperandsReadAndWriteBlocksInPlace) {
  // A weight block inside a flat parameter vector and a gradient block
  // inside a flat gradient vector, passed as views: the kernels must read
  // and write exactly those blocks, bitwise as on owning matrices, and
  // leave the rest of both vectors alone.
  const std::size_t m = 5, k = 7, n = 6, off = 3;
  const Matrix a = random_matrix(m, k, 91);
  const Matrix b = random_matrix(n, k, 92);
  const std::vector<std::size_t> len = random_lengths(n, k, 93);
  Vector params(off + n * k + 2);
  params.fill(-9.0);
  for (std::size_t i = 0; i < n * k; ++i) params[off + i] = b.data()[i];
  const ConstMatrixView bv(params.data() + off, n, k);

  Matrix want(m, n), got(m, n);
  gemm_nt(a, b, want);
  gemm_nt(a, bv, got);
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_EQ(got.data()[i], want.data()[i]);
  gemm_nt_prefix(a, b, len, want);
  gemm_nt_prefix(a, bv, len, got);
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_EQ(got.data()[i], want.data()[i]);

  const Matrix gwant = random_matrix(m, n, 94);
  Matrix nn_want(m, k), nn_got(m, k);
  gemm_nn_prefix(gwant, b, len, nn_want);
  gemm_nn_prefix(gwant, bv, len, nn_got);
  for (std::size_t i = 0; i < nn_want.size(); ++i)
    EXPECT_EQ(nn_got.data()[i], nn_want.data()[i]);

  const Matrix x = random_matrix(m, k, 95);
  const Matrix c0 = random_matrix(n, k, 96);
  Matrix dense = c0, masked = c0;
  Vector grad(off + n * k + 2);
  grad.fill(4.0);
  Vector grad_prefix = grad;
  for (std::size_t i = 0; i < n * k; ++i)
    grad[off + i] = grad_prefix[off + i] = c0.data()[i];
  gemm_tn_accumulate(gwant, x, dense);
  gemm_tn_accumulate(gwant, x, MatrixView(grad.data() + off, n, k));
  gemm_tn_accumulate_prefix(gwant, x, len, masked);
  gemm_tn_accumulate_prefix(gwant, x, len,
                            MatrixView(grad_prefix.data() + off, n, k));
  for (std::size_t i = 0; i < n * k; ++i) {
    EXPECT_EQ(grad[off + i], dense.data()[i]);
    EXPECT_EQ(grad_prefix[off + i], masked.data()[i]);
  }
  for (std::size_t i = 0; i < off; ++i) {
    EXPECT_EQ(grad[i], 4.0);
    EXPECT_EQ(grad_prefix[i], 4.0);
  }
  for (std::size_t i = off + n * k; i < grad.size(); ++i) {
    EXPECT_EQ(grad[i], 4.0);
    EXPECT_EQ(grad_prefix[i], 4.0);
  }
}

TEST(Kernels, PrefixKernelsRejectRowLengthsThatDoNotFit) {
  const Matrix a = random_matrix(2, 4, 97);
  const Matrix w = random_matrix(3, 4, 98);
  Matrix c(2, 3);
  const std::vector<std::size_t> too_long = {1, 5, 2};
  const std::vector<std::size_t> too_few = {1, 2};
  EXPECT_THROW(gemm_nt_prefix(a, w, too_long, c), Error);
  EXPECT_THROW(gemm_nt_prefix(a, w, too_few, c), Error);
}

/// Property sweep: the two gemm variants agree with the naive reference
/// across a grid of shapes, including degenerate 1-sized extents.
class GemmShapeSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapeSweep, AllVariantsMatchReference) {
  const auto [m, k, n] = GetParam();
  const std::uint64_t seed = std::uint64_t(m * 10007 + k * 101 + n);
  const Matrix a = random_matrix(std::size_t(m), std::size_t(k), seed);
  const Matrix b_nn = random_matrix(std::size_t(k), std::size_t(n), seed + 1);
  const Matrix b_nt = random_matrix(std::size_t(n), std::size_t(k), seed + 2);
  const Matrix a_tn = random_matrix(std::size_t(k), std::size_t(m), seed + 3);

  Matrix c{std::size_t(m), std::size_t(n)};
  gemm_nt(a, b_nt, c);
  expect_matrix_near(c, reference_gemm(a, false, b_nt, true));

  Matrix acc{std::size_t(m), std::size_t(n)};
  gemm_tn_accumulate(a_tn, b_nn, acc);
  expect_matrix_near(acc, reference_gemm(a_tn, true, b_nn, false));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapeSweep,
    ::testing::Combine(::testing::Values(1, 3, 17), ::testing::Values(1, 5, 32),
                       ::testing::Values(1, 4, 23)));

}  // namespace
}  // namespace vqmc
