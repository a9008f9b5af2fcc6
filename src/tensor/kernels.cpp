#include "tensor/kernels.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "tensor/kernels_arch.hpp"
#include "tensor/simd.hpp"

namespace vqmc {

// ---------------------------------------------------------------------------
// Runtime dispatch: shape validation happens once here, then the call is
// forwarded to the ISA implementation selected by simd::active_level()
// (kernels_arch.inc compiled per tier).  Tiers that were not compiled in
// cannot be active (the level is clamped to the compiled cap), so the
// default case is always the generic build.
// ---------------------------------------------------------------------------

#if VQMC_SIMD_AVX512
#define VQMC_CASE_AVX512(call) \
  case simd::Level::kAvx512:   \
    return arch_avx512::call;
#else
#define VQMC_CASE_AVX512(call)
#endif
#if VQMC_SIMD_AVX2
#define VQMC_CASE_AVX2(call) \
  case simd::Level::kAvx2:   \
    return arch_avx2::call;
#else
#define VQMC_CASE_AVX2(call)
#endif
#define VQMC_DISPATCH(call)       \
  switch (simd::active_level()) { \
    VQMC_CASE_AVX512(call)        \
    VQMC_CASE_AVX2(call)          \
    default:                      \
      return arch_generic::call;  \
  }

Real dot(std::span<const Real> x, std::span<const Real> y) {
  VQMC_REQUIRE(x.size() == y.size(), "dot: size mismatch");
  VQMC_DISPATCH(dot(x, y))
}

void axpy(Real alpha, std::span<const Real> x, std::span<Real> y) {
  VQMC_REQUIRE(x.size() == y.size(), "axpy: size mismatch");
  VQMC_DISPATCH(axpy(alpha, x, y))
}

void scale(std::span<Real> x, Real alpha) {
  for (Real& v : x) v *= alpha;
}

namespace {

/// Pairwise (cascade) summation: splitting the range in halves keeps the
/// rounding error at O(log N) ulps instead of the O(N) of a running
/// accumulator — at batch sizes >= 1e6 (the serving and weak-scaling
/// regimes) a naive sum visibly biases mean/variance estimates.  The leaf
/// size keeps the recursion shallow while leaving the leaf loop
/// vectorizable.
constexpr std::size_t kPairwiseLeaf = 64;

Real pairwise_sum(const Real* x, std::size_t count) {
  if (count <= kPairwiseLeaf) {
    Real acc = 0;
    for (std::size_t i = 0; i < count; ++i) acc += x[i];
    return acc;
  }
  const std::size_t half = count / 2;
  return pairwise_sum(x, half) + pairwise_sum(x + half, count - half);
}

Real pairwise_sum_sq_dev(const Real* x, std::size_t count, Real center) {
  if (count <= kPairwiseLeaf) {
    Real acc = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const Real d = x[i] - center;
      acc += d * d;
    }
    return acc;
  }
  const std::size_t half = count / 2;
  return pairwise_sum_sq_dev(x, half, center) +
         pairwise_sum_sq_dev(x + half, count - half, center);
}

/// True when `len` holds one prefix length per row of a rows x cols
/// operand and none runs past its last column.
bool prefixes_fit(std::span<const std::size_t> len, std::size_t rows,
                  std::size_t cols) {
  return len.size() == rows &&
         std::all_of(len.begin(), len.end(),
                     [cols](std::size_t l) { return l <= cols; });
}

}  // namespace

Real sum(std::span<const Real> x) { return pairwise_sum(x.data(), x.size()); }

Real mean(std::span<const Real> x) {
  if (x.empty()) return 0;
  return sum(x) / Real(x.size());
}

Real variance(std::span<const Real> x) {
  if (x.empty()) return 0;
  const Real m = mean(x);
  return pairwise_sum_sq_dev(x.data(), x.size(), m) / Real(x.size());
}

void gemm_nt(const Matrix& a, ConstMatrixView b, Matrix& c) {
  VQMC_REQUIRE(a.cols() == b.cols() && c.rows() == a.rows() &&
                   c.cols() == b.rows(),
               "gemm_nt: shape mismatch");
  VQMC_DISPATCH(gemm_nt(a, b, c))
}

void gemm_tn_accumulate(const Matrix& a, const Matrix& b, MatrixView c) {
  VQMC_REQUIRE(a.rows() == b.rows() && c.rows() == a.cols() &&
                   c.cols() == b.cols(),
               "gemm_tn_accumulate: shape mismatch");
  VQMC_DISPATCH(gemm_tn_accumulate(a, b, c))
}

void gemm_nt_prefix(const Matrix& a, ConstMatrixView w,
                    std::span<const std::size_t> len, Matrix& c) {
  VQMC_REQUIRE(a.cols() == w.cols() && c.rows() == a.rows() &&
                   c.cols() == w.rows(),
               "gemm_nt_prefix: shape mismatch");
  VQMC_REQUIRE(prefixes_fit(len, w.rows(), w.cols()),
               "gemm_nt_prefix: row lengths do not fit the weights");
  VQMC_DISPATCH(gemm_nt_prefix(a, w, len, c))
}

void gemm_nn_prefix(const Matrix& a, ConstMatrixView w,
                    std::span<const std::size_t> len, Matrix& c) {
  VQMC_REQUIRE(a.cols() == w.rows() && c.rows() == a.rows() &&
                   c.cols() == w.cols(),
               "gemm_nn_prefix: shape mismatch");
  VQMC_REQUIRE(prefixes_fit(len, w.rows(), w.cols()),
               "gemm_nn_prefix: row lengths do not fit the weights");
  VQMC_DISPATCH(gemm_nn_prefix(a, w, len, c))
}

void gemm_tn_accumulate_prefix(const Matrix& a, const Matrix& b,
                               std::span<const std::size_t> len,
                               MatrixView c) {
  VQMC_REQUIRE(a.rows() == b.rows() && c.rows() == a.cols() &&
                   c.cols() == b.cols(),
               "gemm_tn_accumulate_prefix: shape mismatch");
  VQMC_REQUIRE(prefixes_fit(len, c.rows(), c.cols()),
               "gemm_tn_accumulate_prefix: row lengths do not fit the output");
  VQMC_DISPATCH(gemm_tn_accumulate_prefix(a, b, len, c))
}

void relu_dot_prefix_batch(ConstMatrixView w, std::span<const std::size_t> len,
                           std::size_t row, const Real* a, std::size_t lda,
                           std::size_t rows, Real* out) {
  VQMC_REQUIRE(row < w.rows() && len.size() == w.rows() &&
                   len[row] <= w.cols(),
               "relu_dot_prefix_batch: row out of range");
  VQMC_DISPATCH(relu_dot_prefix_batch(w, len, row, a, lda, rows, out))
}

void dot_prefix_block(ConstMatrixView w, std::span<const std::size_t> len,
                      std::size_t row_begin, const Real* a, std::size_t lda,
                      std::size_t rows, Matrix& out) {
  VQMC_REQUIRE(row_begin <= w.rows() && prefixes_fit(len, w.rows(), w.cols()),
               "dot_prefix_block: row lengths do not fit the weights");
  VQMC_REQUIRE(out.rows() == w.rows() - row_begin && out.cols() == rows,
               "dot_prefix_block: output shape mismatch");
  VQMC_DISPATCH(dot_prefix_block(w, len, row_begin, a, lda, rows, out))
}

void rank1_add_rows(Real* a, std::size_t lda,
                    std::span<const std::uint32_t> row_ids,
                    std::size_t col_begin, const Real* vals, std::size_t len) {
  VQMC_DISPATCH(rank1_add_rows(a, lda, row_ids, col_begin, vals, len))
}

void accumulate_masked_cols(Real* dst, std::uint64_t mask,
                            const Real* const* cols, std::size_t len) {
  VQMC_DISPATCH(accumulate_masked_cols(dst, mask, cols, len))
}

Real bernoulli_log_likelihood(std::span<const Real> x, const Real* p,
                              Real eps) {
  VQMC_DISPATCH(bernoulli_log_likelihood(x, p, eps))
}

void add_row_broadcast(Matrix& a, std::span<const Real> b) {
  VQMC_REQUIRE(a.cols() == b.size(), "add_row_broadcast: shape mismatch");
  const std::size_t m = a.rows(), n = a.cols();
  Real* pa = a.data();
#pragma omp parallel for schedule(static)
  for (std::size_t r = 0; r < m; ++r) {
    Real* row = pa + r * n;
    for (std::size_t c = 0; c < n; ++c) row[c] += b[c];
  }
}

void relu_inplace(Matrix& a) {
  Real* p = a.data();
  const std::size_t total = a.size();
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < total; ++i) p[i] = p[i] > 0 ? p[i] : 0;
}

void relu_backward_inplace(const Matrix& pre, Matrix& grad) {
  VQMC_REQUIRE(pre.rows() == grad.rows() && pre.cols() == grad.cols(),
               "relu_backward: shape mismatch");
  const Real* pp = pre.data();
  Real* pg = grad.data();
  const std::size_t total = grad.size();
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < total; ++i) {
    if (pp[i] <= 0) pg[i] = 0;
  }
}

void sigmoid_inplace(Matrix& a) { VQMC_DISPATCH(sigmoid_inplace(a)) }

void tanh_inplace(Matrix& a) { VQMC_DISPATCH(tanh_inplace(a)) }

void column_sum_accumulate(const Matrix& a, std::span<Real> out) {
  VQMC_REQUIRE(a.cols() == out.size(), "column_sum: shape mismatch");
  const std::size_t m = a.rows(), n = a.cols();
  const Real* pa = a.data();
  for (std::size_t r = 0; r < m; ++r) {
    const Real* row = pa + r * n;
    for (std::size_t c = 0; c < n; ++c) out[c] += row[c];
  }
}

Real sigmoid(Real x) {
  // Branch to avoid overflow in exp for large negative arguments.
  if (x >= 0) {
    const Real z = std::exp(-x);
    return 1 / (1 + z);
  }
  const Real z = std::exp(x);
  return z / (1 + z);
}

Real sum_log_cosh(std::span<const Real> x) {
  VQMC_DISPATCH(sum_log_cosh(x))
}

void relu_shift_delta_lanes(const Real* a, const Real* w, const Real* sign,
                            std::size_t len, Real* out) {
  VQMC_DISPATCH(relu_shift_delta_lanes(a, w, sign, len, out))
}

void triangle_dot_lanes(ConstMatrixView w, std::span<const std::size_t> len,
                        std::size_t lo, std::size_t j_begin, const Real* a,
                        const Real* base, Real* out) {
  VQMC_REQUIRE(j_begin <= w.rows() && len.size() == w.rows(),
               "triangle_dot_lanes: first row out of range");
  VQMC_DISPATCH(triangle_dot_lanes(w, len, lo, j_begin, a, base, out))
}

void bernoulli_logit_delta_lanes(const Real* x, const Real* z,
                                 const Real* base, std::size_t len,
                                 std::size_t origin, const std::size_t* first,
                                 const std::size_t* last, Real eps,
                                 Real* out) {
  for (std::size_t lane = 0; lane < kFlipLanes; ++lane)
    VQMC_REQUIRE(first[lane] < last[lane] && last[lane] <= len,
                 "bernoulli_logit_delta_lanes: lane range out of bounds");
  VQMC_DISPATCH(bernoulli_logit_delta_lanes(x, z, base, len, origin, first,
                                            last, eps, out))
}

Real rbm_flip_table(ConstMatrixView w, Matrix& g, std::span<Real> abs_w,
                    Matrix* w_t) {
  VQMC_REQUIRE(g.rows() == w.cols() && g.cols() == w.rows() &&
                   abs_w.size() == w.cols(),
               "rbm_flip_table: table or sum shape mismatch");
  VQMC_REQUIRE(w_t == nullptr ||
                   (w_t->rows() == w.cols() && w_t->cols() == w.rows()),
               "rbm_flip_table: transpose shape mismatch");
  VQMC_DISPATCH(rbm_flip_table(w, g, abs_w, w_t))
}

void rbm_flip_pq(std::span<const Real> theta, std::span<Real> pq) {
  VQMC_REQUIRE(pq.size() == 2 * theta.size(),
               "rbm_flip_pq: p/q row must be 2h long");
  VQMC_DISPATCH(rbm_flip_pq(theta, pq))
}

void rbm_flip_log_sums(std::span<const Real> pq, ConstMatrixView g,
                       std::span<const std::size_t> sites, const Real* x,
                       std::size_t chunk, Real* out) {
  VQMC_REQUIRE(pq.size() == 2 * g.cols() && chunk >= 1,
               "rbm_flip_log_sums: p/q row or chunk mismatch");
  for (const std::size_t i : sites)
    VQMC_REQUIRE(i < g.rows(), "rbm_flip_log_sums: site out of range");
  VQMC_DISPATCH(rbm_flip_log_sums(pq, g, sites, x, chunk, out))
}

void ising_diagonal(const Real* x, std::size_t rows, std::size_t n,
                    std::span<const Real> field,
                    std::span<const IsingCoupling> couplings, Real* out) {
  VQMC_REQUIRE(field.size() == n, "ising_diagonal: one field per site");
  VQMC_DISPATCH(ising_diagonal(x, rows, n, field, couplings, out))
}

void made_gram(const Matrix& x, const Matrix& g2, const Matrix& g1,
               const Matrix& h1, std::span<const std::size_t> level_end,
               Matrix& k) {
  const std::size_t n = x.rows(), lanes = x.cols();
  VQMC_REQUIRE(g2.rows() == n && level_end.size() == n &&
                   g1.rows() == h1.rows() && g2.cols() == lanes &&
                   g1.cols() == lanes && h1.cols() == lanes,
               "made_gram: operand shape mismatch");
  VQMC_REQUIRE(lanes % kGramLanes == 0 && k.rows() == k.cols() &&
                   k.rows() <= lanes,
               "made_gram: lane padding or output shape mismatch");
  VQMC_REQUIRE(std::is_sorted(level_end.begin(), level_end.end()) &&
                   (n == 0 ? g1.rows() == 0 : level_end[n - 1] == g1.rows()),
               "made_gram: level_end must rise to the unit count");
  VQMC_DISPATCH(made_gram(x, g2, g1, h1, level_end, k))
}

std::uint32_t crc32c(std::uint32_t crc, const void* data, std::size_t bytes) {
  VQMC_DISPATCH(crc32c(crc, data, bytes))
}

}  // namespace vqmc
