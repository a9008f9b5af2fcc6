#include "hamiltonian/hamiltonian.hpp"

#include "common/error.hpp"

namespace vqmc {

void decode_basis_state(std::uint64_t idx, std::span<Real> x) {
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) {
    // Site 0 <-> most significant bit, matching the paper's
    // x = 2^{n-1} x_1 ... 2^0 x_n convention.
    x[i] = Real((idx >> (n - 1 - i)) & 1u);
  }
}

std::uint64_t encode_basis_state(std::span<const Real> x) {
  std::uint64_t idx = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    idx <<= 1;
    if (x[i] > Real(0.5)) idx |= 1u;
  }
  return idx;
}

void Hamiltonian::diagonal_batch(const Matrix& batch,
                                 std::span<Real> out) const {
  VQMC_REQUIRE(batch.cols() == num_spins() && out.size() == batch.rows(),
               "diagonal_batch: batch or output shape mismatch");
  for (std::size_t k = 0; k < batch.rows(); ++k)
    out[k] = diagonal(batch.row(k));
}

void Hamiltonian::apply_dense(std::span<const Real> v,
                              std::span<Real> y) const {
  const std::size_t n = num_spins();
  VQMC_REQUIRE(n <= 24, "apply_dense limited to n <= 24 spins");
  const std::uint64_t dim = std::uint64_t(1) << n;
  VQMC_REQUIRE(v.size() == dim && y.size() == dim,
               "apply_dense: vector size must be 2^n");

  Vector x(n);
  std::vector<Real> flipped(n);
  for (std::uint64_t row = 0; row < dim; ++row) {
    decode_basis_state(row, x.span());
    Real acc = diagonal(x.span()) * v[row];
    for_each_off_diagonal(
        x.span(), [&](std::span<const std::size_t> flips, Real value) {
          std::uint64_t col = row;
          for (std::size_t site : flips)
            col ^= std::uint64_t(1) << (n - 1 - site);
          acc += value * v[col];
        });
    y[row] = acc;
  }
}

Matrix Hamiltonian::to_dense() const {
  const std::size_t n = num_spins();
  VQMC_REQUIRE(n <= 14, "to_dense limited to n <= 14 spins");
  const std::uint64_t dim = std::uint64_t(1) << n;
  Matrix h(dim, dim);
  Vector x(n);
  for (std::uint64_t row = 0; row < dim; ++row) {
    decode_basis_state(row, x.span());
    h(row, row) = diagonal(x.span());
    for_each_off_diagonal(
        x.span(), [&](std::span<const std::size_t> flips, Real value) {
          std::uint64_t col = row;
          for (std::size_t site : flips)
            col ^= std::uint64_t(1) << (n - 1 - site);
          h(row, col) = value;
        });
  }
  return h;
}

}  // namespace vqmc
