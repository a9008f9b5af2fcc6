#include "core/local_energy.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "hamiltonian/exact.hpp"
#include "hamiltonian/maxcut.hpp"
#include "hamiltonian/transverse_field_ising.hpp"
#include "nn/made.hpp"
#include "nn/rbm.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "support/alloc_count.hpp"
#include "tensor/kernels.hpp"

namespace vqmc {
namespace {

void randomize_parameters(WavefunctionModel& model, std::uint64_t seed) {
  rng::Xoshiro256 gen(seed);
  for (Real& p : model.parameters()) p = rng::uniform(gen, -0.5, 0.5);
}

Matrix all_configurations(std::size_t n) {
  const std::size_t dim = std::size_t(1) << n;
  Matrix batch(dim, n);
  for (std::uint64_t idx = 0; idx < dim; ++idx)
    decode_basis_state(idx, batch.row(idx));
  return batch;
}

/// Reference local energy via the dense matrix: l(x) = (H psi)(x) / psi(x).
Vector reference_local_energy(const Hamiltonian& h,
                              const WavefunctionModel& model) {
  const std::size_t n = h.num_spins();
  const std::size_t dim = std::size_t(1) << n;
  const Matrix configs = all_configurations(n);
  Vector lp(dim), psi(dim), h_psi(dim), local(dim);
  model.log_psi(configs, lp.span());
  for (std::size_t i = 0; i < dim; ++i) psi[i] = std::exp(lp[i]);
  h.apply_dense(psi.span(), h_psi.span());
  for (std::size_t i = 0; i < dim; ++i) local[i] = h_psi[i] / psi[i];
  return local;
}

TEST(LocalEnergy, MatchesDenseReferenceOnTimWithMade) {
  const std::size_t n = 5;
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(n, 1);
  Made made(n, 7);
  randomize_parameters(made, 2);

  const Matrix configs = all_configurations(n);
  LocalEnergyEngine engine(tim, made);
  Vector engine_local(configs.rows());
  engine.compute(configs, engine_local.span());

  const Vector reference = reference_local_energy(tim, made);
  for (std::size_t i = 0; i < configs.rows(); ++i)
    EXPECT_NEAR(engine_local[i], reference[i], 1e-9) << "config " << i;
}

TEST(LocalEnergy, MatchesDenseReferenceOnTimWithRbm) {
  const std::size_t n = 4;
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(n, 3);
  Rbm rbm(n, 5);
  randomize_parameters(rbm, 4);

  const Matrix configs = all_configurations(n);
  LocalEnergyEngine engine(tim, rbm);
  Vector engine_local(configs.rows());
  engine.compute(configs, engine_local.span());
  const Vector reference = reference_local_energy(tim, rbm);
  for (std::size_t i = 0; i < configs.rows(); ++i)
    EXPECT_NEAR(engine_local[i], reference[i], 1e-9);
}

TEST(LocalEnergy, DiagonalHamiltonianNeedsNoForwardPasses) {
  const MaxCut h{Graph::bernoulli_symmetrized(8, 5)};
  Made made(8, 6);
  LocalEnergyEngine engine(h, made);
  const Matrix configs = all_configurations(8);
  Vector local(configs.rows());
  engine.compute(configs, local.span());
  EXPECT_EQ(engine.forward_passes(), 0u);
  for (std::size_t i = 0; i < configs.rows(); ++i)
    EXPECT_NEAR(local[i], h.diagonal(configs.row(i)), 1e-12);
}

TEST(LocalEnergy, ChunkSizeDoesNotChangeResults) {
  const std::size_t n = 5;
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(n, 6);
  Made made(n, 4);
  randomize_parameters(made, 7);
  const Matrix configs = all_configurations(n);

  Vector big(configs.rows()), tiny(configs.rows());
  LocalEnergyEngine engine_big(tim, made, 4096);
  LocalEnergyEngine engine_tiny(tim, made, 3);  // forces many flushes
  engine_big.compute(configs, big.span());
  engine_tiny.compute(configs, tiny.span());
  for (std::size_t i = 0; i < configs.rows(); ++i)
    EXPECT_NEAR(big[i], tiny[i], 1e-10);
  EXPECT_GT(engine_tiny.forward_passes(), engine_big.forward_passes());
}

TEST(LocalEnergy, ForwardPassCountIsAsDocumented) {
  // TIM connects each sample to n flips; with chunk c the engine does
  // 1 + ceil(bs * n_nonzero_alpha / c) passes.
  const std::size_t n = 6, bs = 8;
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(n, 8);
  Made made(n, 4);
  LocalEnergyEngine engine(tim, made, 16);
  Matrix batch(bs, n);
  Vector local(bs);
  engine.compute(batch, local.span());
  EXPECT_EQ(engine.forward_passes(), 1u + (bs * n + 15u) / 16u);
  engine.reset_statistics();
  EXPECT_EQ(engine.forward_passes(), 0u);
}

TEST(LocalEnergy, MeanOverExactDistributionEqualsRayleighQuotient) {
  // E_{x ~ pi}[l(x)] = <psi, H psi> / <psi, psi> (Eq. 1/3).
  const std::size_t n = 4;
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(n, 9);
  Made made(n, 5);
  randomize_parameters(made, 10);

  const Matrix configs = all_configurations(n);
  const std::size_t dim = configs.rows();
  Vector lp(dim);
  made.log_psi(configs, lp.span());
  LocalEnergyEngine engine(tim, made);
  Vector local(dim);
  engine.compute(configs, local.span());

  Real expectation = 0;
  for (std::size_t i = 0; i < dim; ++i)
    expectation += std::exp(2 * lp[i]) * local[i];  // pi(x) l(x); Z = 1

  Vector psi(dim), h_psi(dim);
  for (std::size_t i = 0; i < dim; ++i) psi[i] = std::exp(lp[i]);
  tim.apply_dense(psi.span(), h_psi.span());
  const Real rayleigh =
      dot(psi.span(), h_psi.span()) / dot(psi.span(), psi.span());
  EXPECT_NEAR(expectation, rayleigh, 1e-9);
}

TEST(LocalEnergy, LogRatioClampKeepsDivergedModelsFinite) {
  // An RBM with huge weights produces astronomically large wavefunction
  // ratios; the engine must clamp them instead of overflowing to inf/NaN.
  const std::size_t n = 4;
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(n, 12);
  Rbm rbm(n, 3);
  for (Real& p : rbm.parameters()) p = 200.0;  // pathological parameters
  LocalEnergyEngine engine(tim, rbm, 1024, /*max_log_ratio=*/30);
  const Matrix configs = all_configurations(n);
  Vector local(configs.rows());
  engine.compute(configs, local.span());
  for (std::size_t i = 0; i < configs.rows(); ++i)
    EXPECT_TRUE(std::isfinite(local[i])) << "config " << i;
}

TEST(LocalEnergy, ClampDoesNotPerturbHealthyModels) {
  const std::size_t n = 5;
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(n, 13);
  Made made(n, 6);
  randomize_parameters(made, 14);
  const Matrix configs = all_configurations(n);
  Vector tight(configs.rows()), loose(configs.rows());
  LocalEnergyEngine engine_tight(tim, made, 1024, 30);
  LocalEnergyEngine engine_loose(tim, made, 1024, 1e6);
  engine_tight.compute(configs, tight.span());
  engine_loose.compute(configs, loose.span());
  for (std::size_t i = 0; i < configs.rows(); ++i)
    EXPECT_EQ(tight[i], loose[i]);
}

/// Runs compute() twice on one batch of a Made and asserts that the second
/// call does not touch the heap (the first call shapes the model
/// workspaces and chunk buffers) and reproduces the first call's values.
void expect_repeat_compute_allocates_nothing(std::size_t bs,
                                             std::size_t chunk_size) {
  constexpr std::size_t n = 6;
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(n, 15);
  Made made(n, 9);
  randomize_parameters(made, 16);
  Matrix batch(bs, n);
  rng::Xoshiro256 gen(17);
  for (std::size_t i = 0; i < batch.size(); ++i)
    batch.data()[i] = rng::bernoulli(gen, 0.5) ? 1 : 0;

  LocalEnergyEngine engine(tim, made, chunk_size);
  Vector first(bs), again(bs);
  engine.compute(batch, first.span());

  const std::uint64_t before = vqmc::testing::allocation_count();
  engine.compute(batch, again.span());
  EXPECT_EQ(vqmc::testing::allocation_count(), before);
  for (std::size_t k = 0; k < bs; ++k) EXPECT_EQ(again[k], first[k]);
}

TEST(LocalEnergy, RepeatedBatchOfWholeChunksAllocatesNothing) {
  // 8 rows x 6 single-flip neighbours = 48 connected configurations: four
  // full chunks of 12, each evaluated in place.
  expect_repeat_compute_allocates_nothing(8, 12);
}

TEST(LocalEnergy, RepeatedBatchInOnePartialChunkAllocatesNothing) {
  // 48 connected configurations fill part of one 1024-row chunk, which is
  // evaluated through the persistent partial-chunk buffer.
  expect_repeat_compute_allocates_nothing(8, 1024);
}

TEST(LocalEnergy, MismatchedSpinCountsRejected) {
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(4, 11);
  Made made(5, 4);
  EXPECT_THROW(LocalEnergyEngine(tim, made), Error);
}

}  // namespace
}  // namespace vqmc
