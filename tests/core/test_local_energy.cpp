#include "core/local_energy.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <set>
#include <utility>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "hamiltonian/exact.hpp"
#include "hamiltonian/heisenberg.hpp"
#include "hamiltonian/maxcut.hpp"
#include "hamiltonian/transverse_field_ising.hpp"
#include "nn/deep_made.hpp"
#include "nn/made.hpp"
#include "nn/rbm.hpp"
#include "nn/rnn.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "support/alloc_count.hpp"
#include "support/forwarding_model.hpp"
#include "support/telemetry_gate.hpp"
#include "telemetry/metrics_registry.hpp"
#include "tensor/kernels.hpp"

namespace vqmc {
namespace {

void randomize_parameters(WavefunctionModel& model, std::uint64_t seed) {
  rng::Xoshiro256 gen(seed);
  for (Real& p : model.parameters()) p = rng::uniform(gen, -0.5, 0.5);
}

Matrix random_bits(std::size_t bs, std::size_t n, std::uint64_t seed) {
  rng::Xoshiro256 gen(seed);
  Matrix batch(bs, n);
  for (std::size_t i = 0; i < batch.size(); ++i)
    batch.data()[i] = rng::bernoulli(gen, 0.5) ? 1 : 0;
  return batch;
}

/// Number of distinct rows of `batch`.
std::size_t count_distinct(const Matrix& batch) {
  std::set<std::vector<Real>> rows;
  for (std::size_t k = 0; k < batch.rows(); ++k)
    rows.emplace(batch.row(k).begin(), batch.row(k).end());
  return rows.size();
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
  // Chunking belongs to the full-forward path: DeepMADE has no flip path.
  const std::size_t n = 5;
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(n, 6);
  DeepMade made(n, 4, 2);
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
  // TIM connects each sample to n flips; with chunk c the full-forward
  // path (DeepMADE has no flip path) does 1 + ceil(d * n / c) passes over
  // a batch of d distinct rows.
  const std::size_t n = 6, bs = 8;
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(n, 8);
  DeepMade made(n, 4, 2);
  LocalEnergyEngine engine(tim, made, 16);
  const Matrix batch = random_bits(bs, n, 22);
  ASSERT_EQ(count_distinct(batch), bs);
  Vector local(bs);
  engine.compute(batch, local.span());
  EXPECT_EQ(engine.forward_passes(), 1u + (bs * n + 15u) / 16u);
  engine.reset_statistics();
  EXPECT_EQ(engine.forward_passes(), 0u);
  // Eight all-zero rows are one distinct row.
  engine.compute(Matrix(bs, n), local.span());
  EXPECT_EQ(engine.forward_passes(), 1u + (n + 15u) / 16u);
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

/// Runs compute() twice on one batch and asserts that the second call
/// does not touch the heap (the first call shapes the model workspaces and
/// the engine's buffers) and reproduces the first call's values.
void expect_repeat_compute_allocates_nothing(WavefunctionModel& model,
                                             std::size_t bs,
                                             std::size_t chunk_size) {
  constexpr std::size_t n = 6;
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(n, 15);
  randomize_parameters(model, 16);
  Matrix batch(bs, n);
  rng::Xoshiro256 gen(17);
  for (std::size_t i = 0; i < batch.size(); ++i)
    batch.data()[i] = rng::bernoulli(gen, 0.5) ? 1 : 0;

  LocalEnergyEngine engine(tim, model, chunk_size);
  Vector first(bs), again(bs);
  engine.compute(batch, first.span());

  const std::uint64_t before = vqmc::testing::allocation_count();
  engine.compute(batch, again.span());
  EXPECT_EQ(vqmc::testing::allocation_count(), before);
  for (std::size_t k = 0; k < bs; ++k) EXPECT_EQ(again[k], first[k]);
}

// The three chunk cases run on DeepMADE, whose local energies take the
// full-forward path the chunk buffers belong to.

TEST(LocalEnergy, RepeatedBatchOfWholeChunksAllocatesNothing) {
  // 8 rows x 6 single-flip neighbours = 48 connected configurations: four
  // full chunks of 12, each evaluated in place.
  DeepMade model(6, 9, 2);
  expect_repeat_compute_allocates_nothing(model, 8, 12);
}

TEST(LocalEnergy, RepeatedBatchInOnePartialChunkAllocatesNothing) {
  // 48 connected configurations fill part of one 1024-row chunk, which is
  // evaluated through the persistent partial-chunk buffer.
  DeepMade model(6, 9, 2);
  expect_repeat_compute_allocates_nothing(model, 8, 1024);
}

TEST(LocalEnergy, RepeatedBatchOfWholeAndPartialChunksAllocatesNothing) {
  // 48 connected configurations: two full chunks of 20 and a partial one
  // of 8.  The partial chunk has its own workspace, so the two shapes
  // never reshape each other's activations.
  DeepMade model(6, 9, 2);
  expect_repeat_compute_allocates_nothing(model, 8, 20);
}

TEST(LocalEnergy, RepeatedBatchOnTheMadeFlipPathAllocatesNothing) {
  Made natural(6, 5);  // h <= n - 1: one hidden unit per degree
  expect_repeat_compute_allocates_nothing(natural, 8, 12);
  Made cyclic(6, 9);   // h > n - 1: several units per degree
  expect_repeat_compute_allocates_nothing(cyclic, 11, 12);
}

TEST(LocalEnergy, RepeatedBatchOnTheRbmFlipPathAllocatesNothing) {
  Rbm rbm(6, 7);
  expect_repeat_compute_allocates_nothing(rbm, 8, 12);
}

// ---------------------------------------------------------------------------
// The single-flip ratio path (DESIGN.md §5l).
// ---------------------------------------------------------------------------

/// Checks model.log_psi_flip_ratios against log_psi on explicitly flipped
/// copies, within the bound stated in local_energy.hpp, for every site in
/// order and for a shuffled subset.
void expect_flip_ratios_match_flipped_copies(const WavefunctionModel& model,
                                             std::size_t bs,
                                             std::uint64_t seed) {
  const std::size_t n = model.num_spins();
  const Matrix batch = random_bits(bs, n, seed);
  Vector log_x(bs);
  model.log_psi(batch, log_x.span());

  std::vector<std::size_t> all(n);
  std::iota(all.begin(), all.end(), 0);
  std::vector<std::size_t> subset;
  for (std::size_t i = n; i-- > 0;)
    if (i % 3 != 1) subset.push_back(i);
  for (const std::vector<std::size_t>* sites : {&all, &subset}) {
    Matrix ratios(bs, sites->size());
    const auto ws = model.make_workspace();
    ASSERT_TRUE(model.log_psi_flip_ratios(batch, *sites, ratios, ws.get()));
    for (std::size_t q = 0; q < sites->size(); ++q) {
      Matrix flipped = batch;
      for (std::size_t k = 0; k < bs; ++k)
        flipped(k, (*sites)[q]) = 1 - flipped(k, (*sites)[q]);
      Vector log_y(bs);
      model.log_psi(flipped, log_y.span());
      for (std::size_t k = 0; k < bs; ++k) {
        const Real bound =
            kFlipRatioTolerance * std::max(Real(1), std::abs(log_x[k]));
        EXPECT_NEAR(ratios(k, q), log_y[k] - log_x[k], bound)
            << model.name() << " n=" << n << " row " << k << " site "
            << (*sites)[q];
      }
    }
  }
}

TEST(LocalEnergy, MadeFlipRatiosMatchFlippedCopies) {
  for (const std::size_t n : {2ul, 3ul, 7ul, 20ul, 50ul, 128ul}) {
    // h <= n - 1 (one hidden unit per degree) and h > n - 1 (several
    // units per degree).
    const std::size_t natural_h =
        std::min(n - 1, made_default_hidden(n));
    const std::size_t cyclic_h = std::max(n + 3, made_default_hidden(n));
    for (const std::size_t h : {natural_h, cyclic_h}) {
      Made made(n, h);
      randomize_parameters(made, 100 + n + h);
      // 11 rows run as row tiles, 3 rows as site tiles (local_energy.hpp).
      expect_flip_ratios_match_flipped_copies(made, 11, 200 + n);
      expect_flip_ratios_match_flipped_copies(made, 3, 300 + n);
    }
  }
}

TEST(LocalEnergy, RbmFlipRatiosMatchFlippedCopies) {
  for (const std::size_t n : {4ul, 20ul, 128ul}) {
    Rbm rbm(n, n);
    randomize_parameters(rbm, 300 + n);
    expect_flip_ratios_match_flipped_copies(rbm, 11, 400 + n);
    Rbm narrow(n, n / 2 + 1);
    randomize_parameters(narrow, 500 + n);
    expect_flip_ratios_match_flipped_copies(narrow, 5, 600 + n);
  }
}

TEST(LocalEnergy, RbmFlipRatiosMatchFlippedCopiesAtLargeWeights) {
  // |W| up to 40 keeps the full chunk of Rbm::kMaxFlipChunk factors; 100
  // and 300 force shorter chunks (the products must stay normal).  The
  // hidden biases push |theta| to about 400.
  const Real full_chunk_limit = Real(350) / Real(Rbm::kMaxFlipChunk);
  for (const Real w_scale : {Real(1), Real(40), Real(100), Real(300)}) {
    const std::size_t n = 20, h = 20;
    Rbm rbm(n, h);
    randomize_parameters(rbm, 700 + std::uint64_t(w_scale));
    const std::span<Real> p = rbm.parameters();
    for (std::size_t k = 0; k < h * n; ++k) p[k] *= 2 * w_scale;  // W
    for (std::size_t k = h * n; k < h * n + h; ++k) p[k] *= 400;  // c
    Real max_w = 0;
    for (std::size_t k = 0; k < h * n; ++k)
      max_w = std::max(max_w, std::abs(p[k]));
    EXPECT_EQ(max_w < full_chunk_limit, w_scale < full_chunk_limit);
    expect_flip_ratios_match_flipped_copies(rbm, 11, 800 + n);
  }
}

TEST(LocalEnergy, MadeFlipRatiosMatchFlippedCopiesWithSaturatedConditionals) {
  // Weights scaled by up to 16 saturate the conditionals at the 1e-12
  // clamp; n spans several product chunks of kBernoulliChunk outputs.
  const std::size_t n = 3 * kBernoulliChunk + 5;
  for (const Real scale : {1, 4, 8, 12, 16}) {
    for (const std::size_t h : {n - 1, n + 9}) {
      Made made(n, h);
      randomize_parameters(made, 900 + h);
      for (Real& p : made.parameters()) p *= scale;
      expect_flip_ratios_match_flipped_copies(made, 9, 1000 + h);
      expect_flip_ratios_match_flipped_copies(made, 3, 1100 + h);
    }
  }
}

TEST(LocalEnergy, FlipRatiosAndBatchedDiagonalAreBitwiseEqualAtOneAndFourThreads) {
  // The three local-energy kernels — RBM's and MADE's flip ratios and
  // TIM's batched diagonal — give every row the same bits at any thread
  // count.
  const std::size_t n = 24, bs = 70;
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(n, 55);
  Rbm rbm(n, 21);
  Made made(n, 31);
  randomize_parameters(rbm, 56);
  randomize_parameters(made, 57);
  const Matrix batch = random_bits(bs, n, 58);
  std::vector<std::size_t> sites(n);
  std::iota(sites.begin(), sites.end(), 0);
  std::vector<Matrix> ratios;
  std::vector<Vector> diagonals;
#ifdef _OPENMP
  const int threads_before = omp_get_max_threads();
#endif
  for (const int threads : {1, 4}) {
#ifdef _OPENMP
    omp_set_num_threads(threads);
#else
    (void)threads;
#endif
    for (const WavefunctionModel* model :
         std::initializer_list<const WavefunctionModel*>{&rbm, &made}) {
      Matrix out(bs, n);
      const auto ws = model->make_workspace();
      ASSERT_TRUE(model->log_psi_flip_ratios(batch, sites, out, ws.get()));
      ratios.push_back(out);
    }
    Vector diagonal(bs);
    tim.diagonal_batch(batch, diagonal.span());
    diagonals.push_back(diagonal);
  }
#ifdef _OPENMP
  omp_set_num_threads(threads_before);
#endif
  for (std::size_t m = 0; m < 2; ++m)
    for (std::size_t i = 0; i < bs * n; ++i)
      ASSERT_EQ(ratios[m].data()[i], ratios[m + 2].data()[i]) << m << " " << i;
  for (std::size_t k = 0; k < bs; ++k) {
    ASSERT_EQ(diagonals[0][k], diagonals[1][k]) << k;
    ASSERT_EQ(diagonals[0][k], tim.diagonal(batch.row(k))) << k;
  }
}

TEST(LocalEnergy, FlipPathMatchesFullForwardPathWithinTheBound) {
  const std::size_t n = 20, bs = 21;
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(n, 40);
  Made made(n, made_default_hidden(n));
  Rbm rbm(n, n);
  for (WavefunctionModel* model : std::initializer_list<WavefunctionModel*>{
           &made, &rbm}) {
    randomize_parameters(*model, 41);
    vqmc::testing::ForwardingModel full_model(*model);
    const Matrix batch = random_bits(bs, n, 42);
    Vector flip(bs), full(bs);
    LocalEnergyEngine(tim, *model).compute(batch, flip.span());
    LocalEnergyEngine(tim, full_model).compute(batch, full.span());
    for (std::size_t k = 0; k < bs; ++k)
      EXPECT_NEAR(flip[k], full[k],
                  kFlipRatioTolerance * std::max(Real(1), std::abs(full[k])))
          << model->name() << " row " << k;
  }
}

TEST(LocalEnergy, FlipPathCountsOneBatchedEvaluationPerCompute) {
  const std::size_t n = 6, bs = 8;
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(n, 8);
  Made made(n, 4);
  LocalEnergyEngine engine(tim, made, 16);
  const Matrix batch = random_bits(bs, n, 9);
  Vector local(bs);
  engine.compute(batch, local.span());
  EXPECT_EQ(engine.forward_passes(), 1u);
  engine.compute(batch, local.span());
  EXPECT_EQ(engine.forward_passes(), 2u);
}

/// Local energies of a model for every row of `batch`, computed three ways
/// that must agree bitwise: the whole batch, each row alone, and the rows
/// in reverse order.
void expect_rows_independent_of_batch(const Hamiltonian& h,
                                      const WavefunctionModel& model,
                                      const Matrix& batch,
                                      const Vector& reference) {
  const std::size_t bs = batch.rows(), n = batch.cols();
  LocalEnergyEngine engine(h, model);
  Vector all(bs);
  engine.compute(batch, all.span());
  Matrix reversed(bs, n);
  for (std::size_t k = 0; k < bs; ++k)
    for (std::size_t j = 0; j < n; ++j) reversed(bs - 1 - k, j) = batch(k, j);
  Vector rev(bs);
  engine.compute(reversed, rev.span());
  for (std::size_t k = 0; k < bs; ++k) {
    Matrix row(1, n);
    for (std::size_t j = 0; j < n; ++j) row(0, j) = batch(k, j);
    Vector alone(1);
    engine.compute(row, alone.span());
    EXPECT_EQ(all[k], reference[k])
        << h.name() << " " << model.name() << " row " << k;
    EXPECT_EQ(alone[0], reference[k])
        << h.name() << " " << model.name() << " row " << k;
    EXPECT_EQ(rev[bs - 1 - k], reference[k])
        << h.name() << " " << model.name() << " row " << k;
  }
}

TEST(LocalEnergy, FlipPathRowsAreBitwiseIndependentOfBatchAndThreads) {
  // The contract that lets compute() evaluate a repeated row once, on both
  // paths: MADE and RBM take the flip path on TIM; DeepMADE and RNN on TIM,
  // and the XXZ chain's pair exchanges, take full forwards.
  const std::size_t n = 20, bs = 19;  // two full lane tiles and a short one
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(n, 50);
  const XxzHeisenberg xxz = XxzHeisenberg::chain(n, 1.0, 1.0);
  Made natural(n, 17);
  Made cyclic(n, 45);
  Rbm rbm(n, 24);
  DeepMade deep(n, 23, 2);
  RnnWavefunction rnn(n, 8);
  const Matrix batch = random_bits(bs, n, 51);
  ASSERT_EQ(count_distinct(batch), bs);
  const std::pair<const Hamiltonian*, WavefunctionModel*> cases[] = {
      {&tim, &natural}, {&tim, &cyclic},  {&tim, &rbm}, {&tim, &deep},
      {&tim, &rnn},     {&xxz, &natural}, {&xxz, &rbm}};
#ifdef _OPENMP
  const int threads_before = omp_get_max_threads();
#endif
  for (const auto& [h, model] : cases) {
    randomize_parameters(*model, 52);
    Vector reference(bs);
#ifdef _OPENMP
    omp_set_num_threads(1);
#endif
    LocalEnergyEngine(*h, *model).compute(batch, reference.span());
    expect_rows_independent_of_batch(*h, *model, batch, reference);
#ifdef _OPENMP
    omp_set_num_threads(4);
    expect_rows_independent_of_batch(*h, *model, batch, reference);
    omp_set_num_threads(threads_before);
#endif
  }
}

TEST(LocalEnergy, XxzHeisenbergStaysOnTheFullForwardPath) {
  // Pair exchanges flip two sites: the engine must evaluate them with full
  // forwards, exactly as it does for a model without the flip path.
  const std::size_t n = 6;
  const XxzHeisenberg xxz = XxzHeisenberg::chain(n, 1.0, 1.0);
  Made made(n, 9);
  randomize_parameters(made, 60);
  vqmc::testing::ForwardingModel full_model(made);
  const Matrix configs = all_configurations(n);
  Vector flip(configs.rows()), full(configs.rows());
  LocalEnergyEngine engine(xxz, made, 16);
  LocalEnergyEngine reference_engine(xxz, full_model, 16);
  engine.compute(configs, flip.span());
  reference_engine.compute(configs, full.span());
  EXPECT_EQ(engine.forward_passes(), reference_engine.forward_passes());
  const Vector reference = reference_local_energy(xxz, made);
  for (std::size_t i = 0; i < configs.rows(); ++i) {
    EXPECT_EQ(flip[i], full[i]) << "config " << i;
    EXPECT_NEAR(flip[i], reference[i], 1e-9) << "config " << i;
  }
}

/// Test-only operator mixing single-site and two-site entries: a transverse
/// field on every site, XX couplings on a ring (two-site flips, connecting
/// every pair regardless of alignment) and a ZZ diagonal.  Symmetric, so
/// the exhaustive oracle applies.
class MixedFlipHamiltonian final : public Hamiltonian {
 public:
  explicit MixedFlipHamiltonian(std::size_t n) : n_(n) {}
  std::size_t num_spins() const override { return n_; }
  std::size_t row_sparsity() const override { return 2 * n_ + 1; }
  Real diagonal(std::span<const Real> x) const override {
    Real e = 0;
    for (std::size_t i = 0; i < n_; ++i)
      e += 0.3 * ising_sign(x[i]) * ising_sign(x[(i + 1) % n_]);
    return e;
  }
  void for_each_off_diagonal(std::span<const Real> x,
                             const OffDiagonalVisitor& visit) const override {
    (void)x;
    std::size_t flips[2];
    for (std::size_t i = 0; i < n_; ++i) {
      flips[0] = i;
      visit(std::span<const std::size_t>(flips, 1), -0.7 - 0.1 * Real(i));
      flips[1] = (i + 1) % n_;
      visit(std::span<const std::size_t>(flips, 2), -0.4);
    }
  }
  std::string name() const override { return "mixed"; }

 private:
  std::size_t n_;
};

TEST(LocalEnergy, MixedSingleAndTwoSiteEntriesMatchTheExhaustiveOracle) {
  for (const std::size_t n : {3ul, 5ul, 8ul}) {
    const MixedFlipHamiltonian mixed(n);
    Made natural(n, n - 1);
    Made cyclic(n, 2 * n + 1);
    Rbm rbm(n, n + 2);
    DeepMade deep(n, n + 2, 2);
    for (WavefunctionModel* model : std::initializer_list<WavefunctionModel*>{
             &natural, &cyclic, &rbm, &deep}) {
      randomize_parameters(*model, 70 + n);
      const Matrix configs = all_configurations(n);
      LocalEnergyEngine engine(mixed, *model, 7);
      Vector local(configs.rows());
      engine.compute(configs, local.span());
      const Vector reference = reference_local_energy(mixed, *model);
      for (std::size_t i = 0; i < configs.rows(); ++i)
        EXPECT_NEAR(local[i], reference[i], 1e-9)
            << model->name() << " n=" << n << " config " << i;
    }
  }
}

TEST(LocalEnergy, NanParametersGiveNonFiniteEnergiesOnBothPaths) {
  // The trainer's health guard trips on a non-finite local energy; the
  // flip path must not launder NaN parameters into finite values.
  const std::size_t n = 6;
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(n, 80);
  Made made(n, 9);
  Rbm rbm(n, 5);
  const Matrix configs = all_configurations(n);
  for (WavefunctionModel* model : std::initializer_list<WavefunctionModel*>{
           &made, &rbm}) {
    for (Real& p : model->parameters())
      p = std::numeric_limits<Real>::quiet_NaN();
    vqmc::testing::ForwardingModel full_model(*model);
    Vector flip(configs.rows()), full(configs.rows());
    LocalEnergyEngine(tim, *model).compute(configs, flip.span());
    LocalEnergyEngine(tim, full_model).compute(configs, full.span());
    for (std::size_t i = 0; i < configs.rows(); ++i) {
      EXPECT_FALSE(std::isfinite(flip[i])) << model->name() << " " << i;
      EXPECT_FALSE(std::isfinite(full[i])) << model->name() << " " << i;
    }
  }
}

TEST(LocalEnergy, BindSwitchesModelsAndKeepsResults) {
  const std::size_t n = 6;
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(n, 90);
  Made a(n, 9), b(n, 9);
  Rbm c(n, 4);
  randomize_parameters(a, 91);
  randomize_parameters(b, 92);
  randomize_parameters(c, 93);
  const Matrix batch = random_bits(7, n, 94);
  LocalEnergyEngine engine(tim, a);
  for (const WavefunctionModel* model :
       std::initializer_list<const WavefunctionModel*>{&b, &c, &a}) {
    engine.bind(*model);
    Vector bound(7), fresh(7);
    engine.compute(batch, bound.span());
    LocalEnergyEngine(tim, *model).compute(batch, fresh.span());
    for (std::size_t k = 0; k < 7; ++k) EXPECT_EQ(bound[k], fresh[k]);
  }
  Made wrong(n + 1, 4);
  EXPECT_THROW(engine.bind(wrong), Error);
}

// ---------------------------------------------------------------------------
// Distinct rows: compute() evaluates each distinct configuration once.
// ---------------------------------------------------------------------------

bool same_bits(Real a, Real b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Runs `fn` with telemetry on and this thread's metrics in a fresh
/// registry; returns the local_energy.rows and local_energy.distinct_rows
/// it counted (zeros when telemetry is compiled out).
template <class F>
std::pair<std::uint64_t, std::uint64_t> counted_rows(F&& fn) {
  const bool was_enabled = telemetry::enabled();
  telemetry::set_enabled(true);
  telemetry::MetricsRegistry registry;
  {
    const telemetry::ScopedMetricsRegistry scope(registry);
    fn();
  }
  telemetry::set_enabled(was_enabled);
  const telemetry::MetricsSnapshot snap = registry.snapshot();
  const auto* rows = snap.find_counter("local_energy.rows");
  const auto* distinct = snap.find_counter("local_energy.distinct_rows");
  return {rows != nullptr ? rows->value : 0,
          distinct != nullptr ? distinct->value : 0};
}

/// `distinct` (d distinct rows) three times over in a shuffled order gives
/// each row bitwise the energy of its distinct row, with the forward
/// passes of the unrepeated batch; the counters see 3d rows, d distinct.
void expect_repeats_copy_their_distinct_row(const Hamiltonian& h,
                                            const WavefunctionModel& model,
                                            const Matrix& distinct) {
  const std::size_t d = distinct.rows(), n = distinct.cols();
  ASSERT_EQ(count_distinct(distinct), d);
  std::vector<std::size_t> source(3 * d);
  for (std::size_t k = 0; k < 3 * d; ++k) source[k] = k % d;
  rng::Xoshiro256 gen(d * 131 + n);
  for (std::size_t k = source.size(); k-- > 1;)
    std::swap(source[k], source[std::size_t(rng::uniform_index(gen, k + 1))]);
  Matrix batch(3 * d, n);
  for (std::size_t k = 0; k < 3 * d; ++k)
    for (std::size_t j = 0; j < n; ++j) batch(k, j) = distinct(source[k], j);

  LocalEnergyEngine once(h, model, 16), repeated(h, model, 16);
  Vector want(d), got(3 * d);
  once.compute(distinct, want.span());
  const auto [rows, distinct_rows] =
      counted_rows([&] { repeated.compute(batch, got.span()); });
  for (std::size_t k = 0; k < 3 * d; ++k)
    EXPECT_TRUE(same_bits(got[k], want[source[k]]))
        << h.name() << " " << model.name() << " d=" << d << " row " << k;
  EXPECT_EQ(repeated.forward_passes(), once.forward_passes())
      << h.name() << " " << model.name() << " d=" << d;
  if (VQMC_TELEMETRY_COMPILED) {
    EXPECT_EQ(rows, 3 * d);
    EXPECT_EQ(distinct_rows, d);
  }
}

TEST(LocalEnergy, RepeatedRowsGetTheirDistinctRowsEnergyBitwise) {
  const std::size_t n = 6;
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(n, 110);
  const XxzHeisenberg xxz = XxzHeisenberg::chain(n, 1.0, 1.0);
  Made made(n, 9);
  Rbm rbm(n, 5);
  DeepMade deep(n, 7, 2);
  randomize_parameters(made, 111);
  randomize_parameters(rbm, 112);
  randomize_parameters(deep, 113);
  const Matrix every = all_configurations(n);
  // Five distinct rows: fewer than kFlipLanes, so MADE's flip path runs
  // site tiles on the distinct rows though the batch has 15.
  Matrix five(5, n);
  for (std::size_t k = 0; k < 5; ++k)
    for (std::size_t j = 0; j < n; ++j) five(k, j) = every(9 * k + 3, j);
  static_assert(kFlipLanes > 5 && kFlipLanes < 64);
  expect_repeats_copy_their_distinct_row(tim, made, every);
  expect_repeats_copy_their_distinct_row(tim, made, five);
  expect_repeats_copy_their_distinct_row(tim, rbm, every);
  expect_repeats_copy_their_distinct_row(tim, deep, every);
  expect_repeats_copy_their_distinct_row(xxz, made, every);
}

TEST(LocalEnergy, ARowAndItsSingleFlipNeighboursTwiceAreNPlusOneDistinctRows) {
  // Rows one bit apart must never share a group.  DeepMADE's forward
  // passes show the distinct count even with telemetry compiled out:
  // 1 + ceil((n + 1) n / chunk).
  const std::size_t n = 6;
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(n, 120);
  DeepMade deep(n, 7, 2);
  randomize_parameters(deep, 121);
  Matrix distinct(n + 1, n);
  const Matrix x = random_bits(1, n, 122);
  for (std::size_t k = 0; k <= n; ++k) {
    for (std::size_t j = 0; j < n; ++j) distinct(k, j) = x(0, j);
    if (k > 0) distinct(k, k - 1) = 1 - x(0, k - 1);
  }
  Matrix batch(2 * (n + 1), n);
  for (std::size_t k = 0; k < batch.rows(); ++k)
    for (std::size_t j = 0; j < n; ++j) batch(k, j) = distinct(k / 2, j);

  LocalEnergyEngine once(tim, deep, 16), twice(tim, deep, 16);
  Vector want(n + 1), got(batch.rows());
  once.compute(distinct, want.span());
  const auto [rows, distinct_rows] =
      counted_rows([&] { twice.compute(batch, got.span()); });
  for (std::size_t k = 0; k < batch.rows(); ++k)
    EXPECT_TRUE(same_bits(got[k], want[k / 2])) << "row " << k;
  EXPECT_EQ(twice.forward_passes(), 1u + ((n + 1) * n + 15u) / 16u);
  if (VQMC_TELEMETRY_COMPILED) {
    EXPECT_EQ(rows, 2 * (n + 1));
    EXPECT_EQ(distinct_rows, n + 1);
  }
}

/// After a warm call on 8 distinct rows, 8-row batches of 5 and then 3
/// distinct rows allocate nothing (telemetry on), give the energies of a
/// fresh engine and are counted as 5 and 3 distinct rows.
void expect_fewer_distinct_rows_allocate_nothing(WavefunctionModel& model) {
  constexpr std::size_t n = 6, bs = 8;
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(n, 130);
  randomize_parameters(model, 131);
  const Matrix every = all_configurations(n);
  std::vector<Matrix> batches;
  std::vector<Vector> want;
  for (const std::size_t distinct : {8ul, 5ul, 3ul}) {
    Matrix batch(bs, n);
    for (std::size_t k = 0; k < bs; ++k)
      for (std::size_t j = 0; j < n; ++j)
        batch(k, j) = every(7 * (k % distinct) + 2, j);
    ASSERT_EQ(count_distinct(batch), distinct);
    want.emplace_back(bs);
    LocalEnergyEngine(tim, model).compute(batch, want.back().span());
    batches.push_back(std::move(batch));
  }
  LocalEnergyEngine engine(tim, model);
  std::vector<Vector> got(3, Vector(bs));
  std::uint64_t allocations = 0;
  const auto [rows, distinct_rows] = counted_rows([&] {
    engine.compute(batches[0], got[0].span());
    const std::uint64_t before = vqmc::testing::allocation_count();
    engine.compute(batches[1], got[1].span());
    engine.compute(batches[2], got[2].span());
    allocations = vqmc::testing::allocation_count() - before;
  });
  EXPECT_EQ(allocations, 0u) << model.name();
  for (std::size_t b = 0; b < 3; ++b)
    for (std::size_t k = 0; k < bs; ++k)
      EXPECT_TRUE(same_bits(got[b][k], want[b][k]))
          << model.name() << " batch " << b << " row " << k;
  if (VQMC_TELEMETRY_COMPILED) {
    EXPECT_EQ(rows, 3 * bs) << model.name();
    EXPECT_EQ(distinct_rows, 8u + 5u + 3u) << model.name();
  }
}

TEST(LocalEnergy, FewerDistinctRowsThanTheWarmCallAllocateNothing) {
  Made made(6, 9);     // flip path; 5 and 3 distinct rows run site tiles
  Rbm rbm(6, 7);       // flip path
  DeepMade deep(6, 9, 2);  // full-forward path
  expect_fewer_distinct_rows_allocate_nothing(made);
  expect_fewer_distinct_rows_allocate_nothing(rbm);
  expect_fewer_distinct_rows_allocate_nothing(deep);
}

TEST(LocalEnergy, CountsRowsAndDistinctRowsAndWarmCallsAllocateNothing) {
  VQMC_SKIP_WITHOUT_TELEMETRY();
  // 12 rows, 4 distinct; a diagonal Hamiltonian is not grouped and counts
  // every row as distinct.
  const std::size_t n = 6;
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(n, 140);
  const MaxCut maxcut{Graph::bernoulli_symmetrized(n, 141)};
  Made made(n, 9);
  randomize_parameters(made, 142);
  const Matrix distinct = random_bits(4, n, 143);
  ASSERT_EQ(count_distinct(distinct), 4u);
  Matrix batch(12, n);
  for (std::size_t k = 0; k < 12; ++k)
    for (std::size_t j = 0; j < n; ++j) batch(k, j) = distinct((5 * k) % 4, j);
  LocalEnergyEngine engine(tim, made);
  LocalEnergyEngine diagonal(maxcut, made);
  Vector out(12);
  std::uint64_t warm_allocations = 1;
  const auto [rows, distinct_rows] = counted_rows([&] {
    engine.compute(batch, out.span());
    const std::uint64_t before = vqmc::testing::allocation_count();
    engine.compute(batch, out.span());
    warm_allocations = vqmc::testing::allocation_count() - before;
  });
  EXPECT_EQ(rows, 24u);
  EXPECT_EQ(distinct_rows, 8u);
  EXPECT_EQ(warm_allocations, 0u);
  const auto [diagonal_rows, diagonal_distinct] =
      counted_rows([&] { diagonal.compute(batch, out.span()); });
  EXPECT_EQ(diagonal_rows, 12u);
  EXPECT_EQ(diagonal_distinct, 12u);
}

TEST(LocalEnergy, MismatchedSpinCountsRejected) {
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(4, 11);
  Made made(5, 4);
  EXPECT_THROW(LocalEnergyEngine(tim, made), Error);
}

}  // namespace
}  // namespace vqmc
