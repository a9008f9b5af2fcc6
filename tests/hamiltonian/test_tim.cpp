#include "hamiltonian/transverse_field_ising.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "hamiltonian/exact.hpp"
#include "linalg/jacobi_eigen.hpp"
#include "linalg/lanczos.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "tensor/kernels_ref.hpp"
#include "tensor/simd.hpp"

namespace vqmc {
namespace {

TEST(BasisEncoding, RoundTripsAndMatchesPaperConvention) {
  // x = 2^{n-1} x_1 ... 2^0 x_n: site 0 is the most significant bit.
  Vector x(3);
  decode_basis_state(0b101, x.span());
  EXPECT_EQ(x[0], 1);
  EXPECT_EQ(x[1], 0);
  EXPECT_EQ(x[2], 1);
  EXPECT_EQ(encode_basis_state(x.span()), 0b101u);
  for (std::uint64_t idx = 0; idx < 8; ++idx) {
    decode_basis_state(idx, x.span());
    EXPECT_EQ(encode_basis_state(x.span()), idx);
  }
}

TEST(Tim, TwoSpinHandComputedMatrix) {
  // H = -a0 X_0 - a1 X_1 - b0 Z_0 - b1 Z_1 - b01 Z_0 Z_1.
  const Real a0 = 0.3, a1 = 0.7, b0 = 0.2, b1 = -0.4, b01 = 0.5;
  TransverseFieldIsing tim({a0, a1}, {b0, b1}, {{0, 1, b01}});
  const Matrix h = tim.to_dense();

  // Basis order |00>, |01>, |10>, |11> (site 0 = MSB); Z eigenvalue
  // s = 1 - 2x.
  EXPECT_NEAR(h(0, 0), -b0 - b1 - b01, 1e-14);        // s = (+1, +1)
  EXPECT_NEAR(h(1, 1), -b0 + b1 + b01, 1e-14);        // s = (+1, -1)
  EXPECT_NEAR(h(2, 2), b0 - b1 + b01, 1e-14);         // s = (-1, +1)
  EXPECT_NEAR(h(3, 3), b0 + b1 - b01, 1e-14);         // s = (-1, -1)
  // X_1 flips the LSB: |00> <-> |01|; X_0 flips the MSB: |00> <-> |10>.
  EXPECT_NEAR(h(0, 1), -a1, 1e-14);
  EXPECT_NEAR(h(0, 2), -a0, 1e-14);
  EXPECT_NEAR(h(1, 3), -a0, 1e-14);
  EXPECT_NEAR(h(2, 3), -a1, 1e-14);
  // No double flips.
  EXPECT_EQ(h(0, 3), 0.0);
  EXPECT_EQ(h(1, 2), 0.0);
}

TEST(Tim, DenseMatrixIsSymmetric) {
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(5, 3);
  const Matrix h = tim.to_dense();
  for (std::size_t i = 0; i < h.rows(); ++i)
    for (std::size_t j = 0; j < h.cols(); ++j)
      EXPECT_EQ(h(i, j), h(j, i));
}

TEST(Tim, SingleSpinExactSolution) {
  // A single spin in a tilted field, H = -a X - b Z, has ground energy
  // -sqrt(a^2 + b^2). Embed it as spin 0 of a 2-spin system with the other
  // spin free (alpha = beta = 0, no coupling): the spectrum is the tensor
  // product, so the ground energy is unchanged.
  const Real a = 0.6, b = 0.8;
  TransverseFieldIsing tim({a, 0.0}, {b, 0.0}, {});
  const linalg::EigenDecomposition eig = exact_spectrum(tim);
  EXPECT_NEAR(eig.eigenvalues[0], -std::sqrt(a * a + b * b), 1e-10);
}

TEST(Tim, RowSparsityIsNPlusOne) {
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(6, 1);
  EXPECT_EQ(tim.row_sparsity(), 7u);
  Vector x(6);
  decode_basis_state(13, x.span());
  std::size_t entries = 0;
  tim.for_each_off_diagonal(
      x.span(), [&](std::span<const std::size_t> flips, Real value) {
        EXPECT_EQ(flips.size(), 1u);
        EXPECT_LT(value, 0.0);  // -alpha_i with alpha_i > 0 a.s.
        ++entries;
      });
  EXPECT_EQ(entries, 6u);
}

/// Random bit rows for the batched-diagonal checks.
Matrix random_bit_rows(std::size_t rows, std::size_t n, std::uint64_t seed) {
  rng::Xoshiro256 gen(seed);
  Matrix batch(rows, n);
  for (std::size_t i = 0; i < batch.size(); ++i)
    batch.data()[i] = rng::bernoulli(gen, 0.5) ? 1 : 0;
  return batch;
}

TEST(Tim, BatchedDiagonalIsBitwiseTheRowLoopAtEveryLevel) {
  // Products of +-1 signs are exact, so the kernel's rows must equal the
  // scalar per-row loop bit for bit: whole register tiles, short groups
  // and the lone rows of a short last tile alike, at every dispatch level.
  // The sparse instance past the kernel's stack buffer runs the row loop.
  struct Restore {
    ~Restore() { simd::force_level(simd::detected_level()); }
  } restore;
  std::vector<simd::Level> levels = {simd::Level::kGeneric};
  if (simd::detected_level() >= simd::Level::kAvx2)
    levels.push_back(simd::Level::kAvx2);
  if (simd::detected_level() >= simd::Level::kAvx512)
    levels.push_back(simd::Level::kAvx512);
  const std::vector<TransverseFieldIsing> instances = {
      TransverseFieldIsing::random_dense(37, 3),
      TransverseFieldIsing::random_sparse(300, 5, 4),
      TransverseFieldIsing::uniform_chain(50, 0.7, 1.1),
      TransverseFieldIsing::random_sparse(17000, 1, 5)};
  for (const simd::Level level : levels) {
    simd::force_level(level);
    for (const TransverseFieldIsing& tim : instances) {
      const std::size_t n = tim.num_spins();
      for (const std::size_t bs : {1ul, 31ul, 32ul, 33ul, 256ul}) {
        if (n > 1000 && bs > 33) continue;
        const Matrix batch = random_bit_rows(bs, n, 7 * n + bs);
        Vector batched(bs), looped(bs), oracle(bs);
        tim.diagonal_batch(batch, batched.span());
        tim.Hamiltonian::diagonal_batch(batch, looped.span());
        ref::ising_diagonal(batch.data(), bs, n, tim.beta(), tim.couplings(),
                            oracle.data());
        for (std::size_t k = 0; k < bs; ++k) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(batched[k]),
                    std::bit_cast<std::uint64_t>(oracle[k]))
              << simd::level_name(level) << " n=" << n << " bs=" << bs
              << " row " << k;
          ASSERT_EQ(std::bit_cast<std::uint64_t>(looped[k]),
                    std::bit_cast<std::uint64_t>(oracle[k]));
        }
      }
    }
  }
}

TEST(Tim, CouplingsAreStoredOnceAsSixteenByteTerms) {
  // (uint32 i, uint32 j, beta): what the diagonal kernel reads, and the
  // only coupling storage a TIM keeps.
  static_assert(sizeof(TransverseFieldIsing::Coupling) == 16);
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(40, 9);
  EXPECT_EQ(tim.couplings().size(), 40u * 39u / 2u);
  EXPECT_EQ(tim.couplings().capacity(), tim.couplings().size());
  EXPECT_THROW(TransverseFieldIsing({0.5, 0.5}, {0.0, 0.0}, {{1, 0, 1.0}}),
               Error);
}

TEST(Tim, RandomDenseRespectsParameterRanges) {
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(20, 42);
  for (Real a : tim.alpha()) {
    EXPECT_GE(a, 0.0);
    EXPECT_LT(a, 1.0);
  }
  for (Real b : tim.beta()) {
    EXPECT_GE(b, -1.0);
    EXPECT_LT(b, 1.0);
  }
  EXPECT_EQ(tim.couplings().size(), 20u * 19u / 2u);
}

TEST(Tim, RandomSparseHasBoundedCouplings) {
  const std::size_t n = 100, degree = 4;
  const TransverseFieldIsing tim =
      TransverseFieldIsing::random_sparse(n, degree, 1);
  EXPECT_LE(tim.couplings().size(), n * degree);
  EXPECT_GE(tim.couplings().size(), n * degree / 2);  // dedup removes few
  for (const auto& c : tim.couplings()) EXPECT_LT(c.i, c.j);
}

TEST(Tim, NegativeAlphaRejected) {
  EXPECT_THROW(TransverseFieldIsing({-0.1, 0.2}, {0.0, 0.0}, {}), Error);
}

TEST(TimChain, JordanWignerMatchesLanczosAcrossCouplings) {
  // The closed-form free-fermion energy must agree with exact
  // diagonalization for every (J, h) regime: ferromagnetic (h < J),
  // critical (h = J) and paramagnetic (h > J).
  for (const auto& [coupling, field] : std::vector<std::pair<Real, Real>>{
           {1.0, 0.3}, {1.0, 1.0}, {0.4, 1.2}, {0.0, 1.0}, {1.0, 0.0}}) {
    for (std::size_t n : {4u, 6u, 9u}) {
      const TransverseFieldIsing chain =
          TransverseFieldIsing::uniform_chain(n, coupling, field);
      linalg::LanczosOptions lz;
      lz.tolerance = 1e-12;
      const Real numeric = exact_ground_state(chain, lz).energy;
      const Real analytic = tfim_chain_ground_energy(n, coupling, field);
      EXPECT_NEAR(numeric, analytic, 1e-7)
          << "n=" << n << " J=" << coupling << " h=" << field;
    }
  }
}

TEST(TimChain, FerromagneticLimitIsMinusNJ) {
  EXPECT_NEAR(tfim_chain_ground_energy(10, 2.0, 0.0), -20.0, 1e-12);
}

TEST(TimChain, ParamagneticLimitIsMinusNH) {
  EXPECT_NEAR(tfim_chain_ground_energy(10, 0.0, 1.5), -15.0, 1e-12);
}

TEST(TimChain, CriticalEnergyDensityApproachesMinusFourOverPi) {
  // At J = h = 1 the thermodynamic energy density is -4/pi; finite chains
  // converge to it quickly.
  const Real density = tfim_chain_ground_energy(256, 1.0, 1.0) / 256;
  EXPECT_NEAR(density, -4.0 / 3.14159265358979323846, 1e-4);
}

TEST(TimChain, UniformChainStructure) {
  const TransverseFieldIsing chain =
      TransverseFieldIsing::uniform_chain(6, 0.5, 0.7, /*periodic=*/true);
  EXPECT_EQ(chain.couplings().size(), 6u);  // 5 bonds + wrap
  for (Real a : chain.alpha()) EXPECT_EQ(a, 0.7);
  for (Real b : chain.beta()) EXPECT_EQ(b, 0.0);
  const TransverseFieldIsing open =
      TransverseFieldIsing::uniform_chain(6, 0.5, 0.7, /*periodic=*/false);
  EXPECT_EQ(open.couplings().size(), 5u);
}

TEST(Tim, DeterministicPerSeed) {
  const TransverseFieldIsing a = TransverseFieldIsing::random_dense(10, 5);
  const TransverseFieldIsing b = TransverseFieldIsing::random_dense(10, 5);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(a.alpha()[i], b.alpha()[i]);
  for (std::size_t i = 0; i < a.couplings().size(); ++i)
    EXPECT_EQ(a.couplings()[i].beta, b.couplings()[i].beta);
}

}  // namespace
}  // namespace vqmc
