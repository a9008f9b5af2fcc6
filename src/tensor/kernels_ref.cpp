#include "tensor/kernels_ref.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/error.hpp"

namespace vqmc::ref {

Real dot(std::span<const Real> x, std::span<const Real> y) {
  VQMC_REQUIRE(x.size() == y.size(), "ref::dot: size mismatch");
  Real acc = 0;
  for (std::size_t i = 0; i < x.size(); ++i) acc += x[i] * y[i];
  return acc;
}

void gemv(const Matrix& a, std::span<const Real> x, std::span<Real> y) {
  VQMC_REQUIRE(a.cols() == x.size() && a.rows() == y.size(),
               "ref::gemv: shape mismatch");
  const std::size_t m = a.rows(), k = a.cols();
  const Real* pa = a.data();
  for (std::size_t r = 0; r < m; ++r) {
    const Real* row = pa + r * k;
    Real acc = 0;
    for (std::size_t c = 0; c < k; ++c) acc += row[c] * x[c];
    y[r] = acc;
  }
}

void gemv_t(const Matrix& a, std::span<const Real> x, std::span<Real> y) {
  VQMC_REQUIRE(a.rows() == x.size() && a.cols() == y.size(),
               "ref::gemv_t: shape mismatch");
  const std::size_t m = a.rows(), k = a.cols();
  const Real* pa = a.data();
  for (std::size_t c = 0; c < k; ++c) y[c] = 0;
  for (std::size_t r = 0; r < m; ++r) {
    const Real* row = pa + r * k;
    const Real xr = x[r];
    for (std::size_t c = 0; c < k; ++c) y[c] += xr * row[c];
  }
}

void gemm_nn(const Matrix& a, const Matrix& b, Matrix& c) {
  VQMC_REQUIRE(a.cols() == b.rows() && c.rows() == a.rows() &&
                   c.cols() == b.cols(),
               "ref::gemm_nn: shape mismatch");
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  const Real* pa = a.data();
  const Real* pb = b.data();
  Real* pc = c.data();
  for (std::size_t r = 0; r < m; ++r) {
    Real* crow = pc + r * n;
    for (std::size_t j = 0; j < n; ++j) crow[j] = 0;
    const Real* arow = pa + r * k;
    for (std::size_t l = 0; l < k; ++l) {
      const Real av = arow[l];
      const Real* brow = pb + l * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void gemm_nt(const Matrix& a, const Matrix& b, Matrix& c) {
  VQMC_REQUIRE(a.cols() == b.cols() && c.rows() == a.rows() &&
                   c.cols() == b.rows(),
               "ref::gemm_nt: shape mismatch");
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  const Real* pa = a.data();
  const Real* pb = b.data();
  Real* pc = c.data();
  for (std::size_t r = 0; r < m; ++r) {
    const Real* arow = pa + r * k;
    Real* crow = pc + r * n;
    for (std::size_t j = 0; j < n; ++j) {
      const Real* brow = pb + j * k;
      Real acc = 0;
      for (std::size_t l = 0; l < k; ++l) acc += arow[l] * brow[l];
      crow[j] = acc;
    }
  }
}

void gemm_tn_accumulate(const Matrix& a, const Matrix& b, Matrix& c) {
  VQMC_REQUIRE(a.rows() == b.rows() && c.rows() == a.cols() &&
                   c.cols() == b.cols(),
               "ref::gemm_tn_accumulate: shape mismatch");
  const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
  const Real* pa = a.data();
  const Real* pb = b.data();
  Real* pc = c.data();
  for (std::size_t r = 0; r < m; ++r) {
    Real* crow = pc + r * n;
    for (std::size_t l = 0; l < k; ++l) {
      const Real av = pa[l * m + r];
      if (av == Real(0)) continue;
      const Real* brow = pb + l * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void gemm_nt_prefix(const Matrix& a, ConstMatrixView w,
                    std::span<const std::size_t> len, Matrix& c) {
  VQMC_REQUIRE(a.cols() == w.cols() && c.rows() == a.rows() &&
                   c.cols() == w.rows() && len.size() == w.rows(),
               "ref::gemm_nt_prefix: shape mismatch");
  const std::size_t m = a.rows(), k = a.cols(), n = w.rows();
  for (std::size_t r = 0; r < m; ++r) {
    const Real* arow = a.data() + r * k;
    for (std::size_t j = 0; j < n; ++j) {
      const Real* wrow = w.data() + j * k;
      Real acc = 0;
      for (std::size_t l = 0; l < len[j]; ++l) acc += arow[l] * wrow[l];
      c(r, j) = acc;
    }
  }
}

void gemm_nn_prefix(const Matrix& a, ConstMatrixView w,
                    std::span<const std::size_t> len, Matrix& c) {
  VQMC_REQUIRE(a.cols() == w.rows() && c.rows() == a.rows() &&
                   c.cols() == w.cols() && len.size() == w.rows(),
               "ref::gemm_nn_prefix: shape mismatch");
  const std::size_t m = a.rows(), k = a.cols(), n = w.cols();
  for (std::size_t r = 0; r < m; ++r) {
    Real* crow = c.data() + r * n;
    for (std::size_t j = 0; j < n; ++j) crow[j] = 0;
    for (std::size_t l = 0; l < k; ++l) {
      const Real av = a(r, l);
      const Real* wrow = w.data() + l * n;
      for (std::size_t j = 0; j < len[l]; ++j) crow[j] += av * wrow[j];
    }
  }
}

void gemm_tn_accumulate_prefix(const Matrix& a, const Matrix& b,
                               std::span<const std::size_t> len,
                               MatrixView c) {
  VQMC_REQUIRE(a.rows() == b.rows() && c.rows() == a.cols() &&
                   c.cols() == b.cols() && len.size() == c.rows(),
               "ref::gemm_tn_accumulate_prefix: shape mismatch");
  const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
  for (std::size_t r = 0; r < m; ++r) {
    Real* crow = c.data() + r * n;
    for (std::size_t l = 0; l < k; ++l) {
      const Real av = a(l, r);
      if (av == Real(0)) continue;
      const Real* brow = b.data() + l * n;
      for (std::size_t j = 0; j < len[r]; ++j) crow[j] += av * brow[j];
    }
  }
}

void relu_dot_prefix_batch(ConstMatrixView w, std::span<const std::size_t> len,
                           std::size_t row, const Real* a, std::size_t lda,
                           std::size_t rows, Real* out) {
  const Real* wrow = w.row(row).data();
  for (std::size_t r = 0; r < rows; ++r) {
    const Real* arow = a + r * lda;
    Real acc = 0;
    for (std::size_t c = 0; c < len[row]; ++c)
      acc += (arow[c] > 0 ? arow[c] : Real(0)) * wrow[c];
    out[r] = acc;
  }
}

void relu_dot_prefix_block(ConstMatrixView w, std::span<const std::size_t> len,
                           std::size_t row_begin, const Real* a,
                           std::size_t lda, std::size_t rows, Matrix& out) {
  for (std::size_t site = row_begin; site < w.rows(); ++site)
    ref::relu_dot_prefix_batch(w, len, site, a, lda, rows,
                               out.row(site - row_begin).data());
}

void dot_prefix_block(ConstMatrixView w, std::span<const std::size_t> len,
                      std::size_t row_begin, const Real* a, std::size_t lda,
                      std::size_t rows, Matrix& out) {
  for (std::size_t site = row_begin; site < w.rows(); ++site)
    for (std::size_t r = 0; r < rows; ++r) {
      const Real* arow = a + r * lda;
      const Real* wrow = w.row(site).data();
      Real acc = 0;
      for (std::size_t c = 0; c < len[site]; ++c) acc += arow[c] * wrow[c];
      out(site - row_begin, r) = acc;
    }
}

void rank1_add_rows(Real* a, std::size_t lda,
                    std::span<const std::uint32_t> row_ids,
                    std::size_t col_begin, const Real* vals, std::size_t len) {
  for (const std::uint32_t r : row_ids) {
    Real* row = a + std::size_t(r) * lda + col_begin;
    for (std::size_t t = 0; t < len; ++t) row[t] += vals[t];
  }
}

void accumulate_masked_cols(Real* dst, std::uint64_t mask,
                            const Real* const* cols, std::size_t len) {
  for (unsigned b = 0; b < 64; ++b) {
    if (!(mask & (std::uint64_t(1) << b))) continue;
    const Real* src = cols[b];
    for (std::size_t t = 0; t < len; ++t) dst[t] += src[t];
  }
}

Real bernoulli_log_likelihood(std::span<const Real> x, const Real* p,
                              Real eps) {
  Real acc = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const Real sel = x[i] != 0 ? p[i] : 1 - p[i];
    acc += std::log(sel < eps ? eps : sel);
  }
  return acc;
}

void sigmoid_inplace(Matrix& a) {
  Real* p = a.data();
  const std::size_t total = a.size();
  for (std::size_t i = 0; i < total; ++i) p[i] = sigmoid(p[i]);
}

void tanh_inplace(Matrix& a) {
  Real* p = a.data();
  const std::size_t total = a.size();
  for (std::size_t i = 0; i < total; ++i) p[i] = std::tanh(p[i]);
}

Real log_cosh(Real x) {
  const Real ax = std::fabs(x);
  // log cosh x = |x| + log(1 + exp(-2|x|)) - log 2.
  return ax + std::log1p(std::exp(-2 * ax)) - Real(0.6931471805599453);
}

Real sum_log_cosh(std::span<const Real> x) {
  Real acc = 0;
  for (const Real v : x) acc += log_cosh(v);
  return acc;
}

void relu_shift_delta_lanes(const Real* a, const Real* w, const Real* sign,
                            std::size_t len, Real* out) {
  constexpr std::size_t L = kFlipLanes;
  const auto relu = [](Real v) { return v > 0 ? v : Real(0); };
  for (std::size_t c = 0; c < len; ++c)
    for (std::size_t lane = 0; lane < L; ++lane) {
      const Real before = a[c * L + lane];
      out[c * L + lane] =
          relu(before + sign[lane] * w[c * L + lane]) - relu(before);
    }
}

void triangle_dot_lanes(ConstMatrixView w, std::span<const std::size_t> len,
                        std::size_t lo, std::size_t j_begin, const Real* a,
                        const Real* base, Real* out) {
  constexpr std::size_t L = kFlipLanes;
  for (std::size_t lane = 0; lane < L; ++lane)
    for (std::size_t j = j_begin; j < w.rows(); ++j) {
      const Real* wrow = w.row(j).data();
      Real acc = 0;
      for (std::size_t c = lo; c < len[j]; ++c) acc += wrow[c] * a[c * L + lane];
      out[(j - j_begin) * L + lane] = base[j * L + lane] + acc;
    }
}

void bernoulli_logit_delta_lanes(const Real* x, const Real* z,
                                 const Real* base, std::size_t len,
                                 std::size_t /*origin*/,
                                 const std::size_t* first,
                                 const std::size_t* last, Real eps,
                                 Real* out) {
  constexpr std::size_t L = kFlipLanes;
  for (std::size_t lane = 0; lane < L; ++lane) {
    Real acc = 0;
    for (std::size_t t = first[lane]; t < last[lane] && t < len; ++t) {
      const Real p = sigmoid(z[t * L + lane]);
      const bool bit = (x[t * L + lane] != 0) != (t == first[lane]);
      const Real sel = bit ? p : 1 - p;
      acc += std::log(sel < eps ? eps : sel) - std::log(base[t * L + lane]);
    }
    out[lane] = acc;
  }
}

Real rbm_flip_table(ConstMatrixView w, Matrix& g, std::span<Real> abs_w,
                    Matrix* w_t) {
  std::fill(abs_w.begin(), abs_w.end(), Real(0));
  Real peak = 0;
  for (std::size_t l = 0; l < w.rows(); ++l)
    for (std::size_t j = 0; j < w.cols(); ++j) {
      const Real wlj = w.row(l)[j];
      const Real mag = std::fabs(wlj);
      g(j, l) = std::copysign(std::exp(std::max(-2 * mag, Real(-708))), wlj);
      if (w_t != nullptr) (*w_t)(j, l) = wlj;
      abs_w[j] += mag;
      peak = std::max(peak, mag);
    }
  return peak;
}

void rbm_flip_log_sums(std::span<const Real> theta, ConstMatrixView g,
                       std::span<const std::size_t> sites, const Real* x,
                       Real* out) {
  const std::size_t h = theta.size();
  for (std::size_t s = 0; s < sites.size(); ++s) {
    const std::size_t i = sites[s];
    const Real* gi = g.row(i).data();
    Real acc = 0;
    for (std::size_t l = 0; l < h; ++l) {
      const Real p = sigmoid(2 * theta[l]);
      const Real q = sigmoid(-2 * theta[l]);
      const Real f = std::fabs(gi[l]);
      // The flip's shift of theta_l is +-W_li: + for a 0 -> 1 flip.
      const bool shift_up = (x[i] == 0) != std::signbit(gi[l]);
      acc += std::log(shift_up ? p + q * f : p * f + q);
    }
    out[s] = acc;
  }
}

void ising_diagonal(const Real* x, std::size_t rows, std::size_t n,
                    std::span<const Real> field,
                    std::span<const IsingCoupling> couplings, Real* out) {
  const auto sign = [](Real v) { return 1 - 2 * v; };
  for (std::size_t r = 0; r < rows; ++r) {
    const Real* xr = x + r * n;
    Real acc = 0;
    for (std::size_t i = 0; i < n; ++i) acc -= field[i] * sign(xr[i]);
    for (const IsingCoupling& c : couplings)
      acc -= c.beta * sign(xr[c.i]) * sign(xr[c.j]);
    out[r] = acc;
  }
}

void made_gram(const Matrix& x, const Matrix& g2, const Matrix& g1,
               const Matrix& h1, std::span<const std::size_t> level_end,
               Matrix& k) {
  VQMC_REQUIRE(k.rows() == k.cols() && k.rows() <= x.cols() &&
                   level_end.size() == x.rows(),
               "ref::made_gram: shape mismatch");
  const std::size_t n = x.rows(), bs = k.rows();
  for (std::size_t s = 0; s < bs; ++s)
    for (std::size_t t = 0; t < bs; ++t) {
      Real p = 1, q = 1, acc = 0;
      std::size_t u = 0;
      for (std::size_t i = 0; i < n; ++i) {
        for (; u < level_end[i]; ++u) {
          acc += g1(u, s) * g1(u, t) * p;
          q += h1(u, s) * h1(u, t);
        }
        acc += g2(i, s) * g2(i, t) * q;
        p += x(i, s) * x(i, t);
      }
      k(s, t) = acc;
    }
}

namespace {

/// Byte-at-a-time table of the reflected Castagnoli polynomial.
constexpr std::array<std::uint32_t, 256> make_crc32c_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t byte = 0; byte < 256; ++byte) {
    std::uint32_t c = byte;
    for (int bit = 0; bit < 8; ++bit)
      c = (c >> 1) ^ (0x82F63B78u & (0u - (c & 1u)));
    table[byte] = c;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kCrc32cTable = make_crc32c_table();

}  // namespace

std::uint32_t crc32c(std::uint32_t crc, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = ~crc;
  for (std::size_t i = 0; i < bytes; ++i)
    c = kCrc32cTable[(c ^ p[i]) & 0xffu] ^ (c >> 8);
  return ~c;
}

}  // namespace vqmc::ref
