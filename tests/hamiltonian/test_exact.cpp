#include "hamiltonian/exact.hpp"

#include <gtest/gtest.h>

#include "hamiltonian/maxcut.hpp"
#include "hamiltonian/transverse_field_ising.hpp"
#include "linalg/jacobi_eigen.hpp"
#include "tensor/kernels.hpp"
#include "tensor/kernels_ref.hpp"

namespace vqmc {
namespace {

TEST(Exact, LanczosMatchesDenseSpectrumOnTim) {
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(6, 4);
  const linalg::EigenDecomposition dense = exact_spectrum(tim);
  const ExactGroundState sparse = exact_ground_state(tim);
  EXPECT_NEAR(sparse.energy, dense.eigenvalues[0], 1e-8);
}

TEST(Exact, GroundStateIsNonNegativeUpToGlobalSign) {
  // Perron–Frobenius: with alpha_i >= 0 the ground vector can be chosen
  // entrywise non-negative. The Lanczos vector may carry a global sign.
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(5, 8);
  const ExactGroundState gs = exact_ground_state(tim);
  Real sign = 0;
  for (std::size_t i = 0; i < gs.amplitudes.size(); ++i) {
    if (std::abs(gs.amplitudes[i]) > 1e-8) {
      sign = gs.amplitudes[i] > 0 ? 1 : -1;
      break;
    }
  }
  for (std::size_t i = 0; i < gs.amplitudes.size(); ++i)
    EXPECT_GE(sign * gs.amplitudes[i], -1e-8);
}

TEST(Exact, ApplyDenseMatchesToDense) {
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(4, 2);
  const Matrix h = tim.to_dense();
  const std::size_t dim = 16;
  Vector v(dim), y_apply(dim), y_dense(dim);
  for (std::size_t i = 0; i < dim; ++i) v[i] = Real(i) - 7.5;
  tim.apply_dense(v.span(), y_apply.span());
  ref::gemv(h, v.span(), y_dense.span());
  for (std::size_t i = 0; i < dim; ++i)
    EXPECT_NEAR(y_apply[i], y_dense[i], 1e-11);
}

TEST(Exact, DiagonalMinimumAgreesWithSpectrumForMaxCut) {
  const MaxCut h{Graph::bernoulli_symmetrized(8, 21)};
  const auto [scan_energy, scan_x] = exact_diagonal_minimum(h);
  const linalg::EigenDecomposition eig = exact_spectrum(h);
  EXPECT_NEAR(scan_energy, eig.eigenvalues[0], 1e-9);
  (void)scan_x;
}

TEST(Exact, MaxCutBruteForceOnKnownGraphs) {
  EXPECT_DOUBLE_EQ(exact_max_cut(Graph::cycle(6)), 6.0);
  EXPECT_DOUBLE_EQ(exact_max_cut(Graph::cycle(7)), 6.0);
  EXPECT_DOUBLE_EQ(exact_max_cut(Graph::complete(4)), 4.0);   // 2x2 split
  EXPECT_DOUBLE_EQ(exact_max_cut(Graph::complete(5)), 6.0);   // 2x3 split
}

TEST(Exact, VarianceVanishesAtExactEigenstate) {
  // Eq. 4's signature property: if psi is the exact ground state, the local
  // energy is constant (= lambda_min) for every configuration with nonzero
  // amplitude.
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(4, 9);
  // Use the dense decomposition for a machine-precision eigenvector (the
  // Lanczos Ritz vector's residual is only ~sqrt of its value tolerance).
  const linalg::EigenDecomposition spectrum = exact_spectrum(tim);
  ExactGroundState gs;
  gs.energy = spectrum.eigenvalues[0];
  gs.amplitudes = Vector(16);
  for (std::size_t i = 0; i < 16; ++i)
    gs.amplitudes[i] = spectrum.eigenvectors(i, 0);
  const std::size_t n = 4, dim = 16;
  Vector x(n);
  for (std::uint64_t idx = 0; idx < dim; ++idx) {
    decode_basis_state(idx, x.span());
    if (std::abs(gs.amplitudes[idx]) < 1e-8) continue;
    Real local = tim.diagonal(x.span());
    tim.for_each_off_diagonal(
        x.span(), [&](std::span<const std::size_t> flips, Real value) {
          std::uint64_t col = idx;
          for (std::size_t site : flips)
            col ^= std::uint64_t(1) << (n - 1 - site);
          local += value * gs.amplitudes[col] / gs.amplitudes[idx];
        });
    EXPECT_NEAR(local, gs.energy, 1e-6);
  }
}

}  // namespace
}  // namespace vqmc
