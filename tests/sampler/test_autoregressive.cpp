#include "sampler/autoregressive_sampler.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "hamiltonian/hamiltonian.hpp"
#include "nn/made.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "sampler/diagnostics.hpp"
#include "sampler/metropolis_sampler.hpp"

namespace vqmc {
namespace {

void randomize_parameters(WavefunctionModel& model, std::uint64_t seed) {
  rng::Xoshiro256 gen(seed);
  for (Real& p : model.parameters()) p = rng::uniform(gen, -0.8, 0.8);
}

std::vector<Real> exact_distribution(const Made& made) {
  const std::size_t n = made.num_spins();
  const std::size_t dim = std::size_t(1) << n;
  Matrix batch(dim, n);
  for (std::uint64_t idx = 0; idx < dim; ++idx)
    decode_basis_state(idx, batch.row(idx));
  Vector lp(dim);
  made.log_psi(batch, lp.span());
  std::vector<Real> pi(dim);
  for (std::size_t i = 0; i < dim; ++i) pi[i] = std::exp(2 * lp[i]);
  return pi;
}

TEST(AutoSampler, OutputsAreBits) {
  Made made(6, 8);
  randomize_parameters(made, 1);
  AutoregressiveSampler sampler(made, 2);
  Matrix out(32, 6);
  sampler.sample(out);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const Real v = out.data()[i];
    EXPECT_TRUE(v == 0.0 || v == 1.0);
  }
}

TEST(AutoSampler, ExactlyNForwardPassesPerBatch) {
  // The headline property (Figure 1): n forward passes independent of bs.
  Made made(7, 5);
  AutoregressiveSampler sampler(made, 3);
  Matrix small(4, 7), large(128, 7);
  sampler.sample(small);
  EXPECT_EQ(sampler.statistics().forward_passes, 7u);
  sampler.sample(large);
  EXPECT_EQ(sampler.statistics().forward_passes, 14u);
  EXPECT_EQ(sampler.statistics().proposals, 0u);
}

TEST(AutoSampler, EmpiricalDistributionMatchesExactModel) {
  // The defining correctness property of AUTO: samples are exact draws
  // from pi_theta. Compare the histogram against the enumerated
  // distribution in total variation.
  Made made(4, 6);
  randomize_parameters(made, 4);
  AutoregressiveSampler sampler(made, 5);
  const std::size_t draws = 20000;
  Matrix out(draws, 4);
  sampler.sample(out);
  const std::vector<Real> empirical = empirical_distribution(out);
  const std::vector<Real> exact = exact_distribution(made);
  // Expected TV for N draws over 16 cells is O(sqrt(16 / N)) ~ 0.02.
  EXPECT_LT(total_variation_distance(empirical, exact), 0.03);
}

TEST(AutoSampler, MarginalOfFirstSiteMatchesFirstConditional) {
  Made made(5, 7);
  randomize_parameters(made, 6);
  Matrix probe(1, 5);
  Matrix cond;
  made.conditionals(probe, cond);
  const Real p1 = cond(0, 0);

  AutoregressiveSampler sampler(made, 7);
  const std::size_t draws = 20000;
  Matrix out(draws, 5);
  sampler.sample(out);
  Real frequency = 0;
  for (std::size_t k = 0; k < draws; ++k) frequency += out(k, 0);
  frequency /= Real(draws);
  EXPECT_NEAR(frequency, p1, 0.02);
}

TEST(AutoSampler, DeterministicPerSeed) {
  Made made(5, 4);
  randomize_parameters(made, 8);
  AutoregressiveSampler a(made, 99), b(made, 99);
  Matrix xa(16, 5), xb(16, 5);
  a.sample(xa);
  b.sample(xb);
  for (std::size_t i = 0; i < xa.size(); ++i)
    EXPECT_EQ(xa.data()[i], xb.data()[i]);
}

TEST(AutoSampler, AgreesWithMcmcOnTheSameModel) {
  // AUTO and a long-burn-in MCMC chain on the same MADE must produce the
  // same distribution — the strongest cross-check between the two sampling
  // stacks, independent of any enumerated reference.
  Made made(4, 6);
  randomize_parameters(made, 40);
  const std::size_t draws = 20000;

  AutoregressiveSampler auto_sampler(made, 41);
  Matrix auto_out(draws, 4);
  auto_sampler.sample(auto_out);

  MetropolisConfig cfg;
  cfg.burn_in = 500;
  cfg.thinning = 2;
  cfg.seed = 42;
  MetropolisSampler mcmc(made, cfg);
  Matrix mcmc_out(draws, 4);
  mcmc.sample(mcmc_out);

  EXPECT_LT(total_variation_distance(empirical_distribution(auto_out),
                                     empirical_distribution(mcmc_out)),
            0.06);
}

TEST(AutoSampler, WrongShapeRejected) {
  Made made(4, 3);
  AutoregressiveSampler sampler(made, 1);
  Matrix wrong(4, 5);
  EXPECT_THROW(sampler.sample(wrong), Error);
}

TEST(AutoSampler, StateRoundTripResumesTheSampleStream) {
  Made made(5, 6);
  made.initialize(3);
  AutoregressiveSampler a(made, 7);
  AutoregressiveSampler b(made, 7);
  Matrix batch_a(8, 5);
  Matrix batch_b(8, 5);
  a.sample(batch_a);
  b.sample(batch_b);

  // Serialize a's mid-run RNG state into a differently seeded sampler; its
  // next batch must be bit-identical to the uninterrupted twin's.
  AutoregressiveSampler restored(made, 12345);
  restored.restore_state(a.serialize_state());
  restored.sample(batch_a);
  b.sample(batch_b);
  for (std::size_t k = 0; k < batch_a.rows(); ++k)
    for (std::size_t j = 0; j < batch_a.cols(); ++j)
      EXPECT_EQ(batch_a(k, j), batch_b(k, j));

  // Malformed payloads are rejected.
  EXPECT_THROW(restored.restore_state({1, 2, 3}), Error);
}

}  // namespace
}  // namespace vqmc
