#include "linalg/cholesky.hpp"

#include <cmath>

#include "common/error.hpp"
#include "tensor/kernels.hpp"

namespace vqmc::linalg {

bool cholesky_factor(Matrix& a) {
  VQMC_REQUIRE(a.rows() == a.cols(), "cholesky: matrix must be square");
  const std::size_t n = a.rows();
  // Left-looking: column j of L needs the finished columns 0..j-1 of rows
  // j..n-1, each a contiguous row prefix, so both reductions are the
  // dispatched dot.
  for (std::size_t j = 0; j < n; ++j) {
    const std::span<const Real> row_j = a.row(j).first(j);
    const Real diag = a(j, j) - dot(row_j, row_j);
    if (!(diag > Real(0))) return false;
    const Real ljj = std::sqrt(diag);
    a(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i)
      a(i, j) = (a(i, j) - dot(a.row(i).first(j), row_j)) / ljj;
  }
  // Zero the strict upper triangle so the factor is unambiguous.
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) a(i, j) = 0;
  return true;
}

void cholesky_solve(const Matrix& l, std::span<const Real> b,
                    std::span<Real> x) {
  const std::size_t n = l.rows();
  VQMC_REQUIRE(b.size() == n && x.size() == n, "cholesky_solve: size mismatch");
  // Forward substitution L y = b (y stored in x).
  for (std::size_t i = 0; i < n; ++i) {
    Real v = b[i];
    for (std::size_t k = 0; k < i; ++k) v -= l(i, k) * x[k];
    x[i] = v / l(i, i);
  }
  // Back substitution L^T x = y.
  for (std::size_t ii = n; ii-- > 0;) {
    Real v = x[ii];
    for (std::size_t k = ii + 1; k < n; ++k) v -= l(k, ii) * x[k];
    x[ii] = v / l(ii, ii);
  }
}

bool solve_spd(const Matrix& a, std::span<const Real> b, std::span<Real> x) {
  Matrix factor = a;
  if (!cholesky_factor(factor)) return false;
  cholesky_solve(factor, b, x);
  return true;
}

}  // namespace vqmc::linalg
