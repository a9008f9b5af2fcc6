#include "sampler/metropolis_sampler.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "hamiltonian/hamiltonian.hpp"
#include "nn/made.hpp"
#include "nn/rbm.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "sampler/diagnostics.hpp"
#include "support/alloc_count.hpp"
#include "telemetry/metrics_registry.hpp"
#include "telemetry/telemetry.hpp"

namespace vqmc {
namespace {

void randomize_parameters(WavefunctionModel& model, std::uint64_t seed,
                          Real scale = 0.4) {
  rng::Xoshiro256 gen(seed);
  for (Real& p : model.parameters()) p = rng::uniform(gen, -scale, scale);
}

std::vector<Real> born_distribution(const WavefunctionModel& model) {
  const std::size_t n = model.num_spins();
  const std::size_t dim = std::size_t(1) << n;
  Matrix batch(dim, n);
  for (std::uint64_t idx = 0; idx < dim; ++idx)
    decode_basis_state(idx, batch.row(idx));
  Vector lp(dim);
  model.log_psi(batch, lp.span());
  std::vector<Real> pi(dim);
  Real z = 0;
  for (std::size_t i = 0; i < dim; ++i) {
    pi[i] = std::exp(2 * lp[i]);
    z += pi[i];
  }
  for (Real& p : pi) p /= z;
  return pi;
}

TEST(MetropolisSampler, PaperBurnInFormula) {
  EXPECT_EQ(paper_burn_in(100), 400u);
  EXPECT_EQ(paper_burn_in(500), 1600u);
}

TEST(MetropolisSampler, OutputsAreBits) {
  Rbm rbm(5, 5);
  randomize_parameters(rbm, 1);
  MetropolisConfig cfg;
  cfg.burn_in = 50;
  MetropolisSampler sampler(rbm, cfg);
  Matrix out(16, 5);
  sampler.sample(out);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const Real v = out.data()[i];
    EXPECT_TRUE(v == 0.0 || v == 1.0);
  }
}

TEST(MetropolisSampler, ConvergesToBornDistributionOfRbm) {
  // Ergodicity check: long chains should approximate pi = psi^2 / Z.
  Rbm rbm(4, 4);
  randomize_parameters(rbm, 2);
  MetropolisConfig cfg;
  cfg.num_chains = 2;
  cfg.burn_in = 500;
  cfg.thinning = 2;
  cfg.seed = 3;
  MetropolisSampler sampler(rbm, cfg);
  const std::size_t draws = 20000;
  Matrix out(draws, 4);
  sampler.sample(out);
  const std::vector<Real> empirical = empirical_distribution(out);
  const std::vector<Real> exact = born_distribution(rbm);
  EXPECT_LT(total_variation_distance(empirical, exact), 0.05);
}

TEST(MetropolisSampler, WorksWithNormalizedModelsToo) {
  // MCMC only needs log-psi differences, so it also runs on MADE.
  Made made(4, 5);
  randomize_parameters(made, 4, 0.8);
  MetropolisConfig cfg;
  cfg.burn_in = 500;
  cfg.seed = 5;
  MetropolisSampler sampler(made, cfg);
  const std::size_t draws = 20000;
  Matrix out(draws, 4);
  sampler.sample(out);
  const std::vector<Real> empirical = empirical_distribution(out);
  const std::vector<Real> exact = born_distribution(made);
  EXPECT_LT(total_variation_distance(empirical, exact), 0.05);
}

TEST(MetropolisSampler, ForwardPassAccountingMatchesFigureOne) {
  // Per sample() call: 1 (restart eval) + burn_in + thinning * ceil(bs / c).
  Rbm rbm(6, 3);
  MetropolisConfig cfg;
  cfg.num_chains = 2;
  cfg.burn_in = 25;
  cfg.thinning = 3;
  MetropolisSampler sampler(rbm, cfg);
  Matrix out(10, 6);  // ceil(10 / 2) = 5 collection rounds
  sampler.sample(out);
  EXPECT_EQ(sampler.statistics().forward_passes, 1u + 25u + 3u * 5u);
}

TEST(MetropolisSampler, AcceptanceRateIsReasonable) {
  Rbm rbm(8, 8);
  randomize_parameters(rbm, 6);
  MetropolisConfig cfg;
  cfg.burn_in = 200;
  MetropolisSampler sampler(rbm, cfg);
  Matrix out(200, 8);
  sampler.sample(out);
  const double rate = sampler.statistics().acceptance_rate();
  EXPECT_GT(rate, 0.1);  // single-site flips on a mild landscape
  EXPECT_LE(rate, 1.0);
}

TEST(MetropolisSampler, PersistentChainsSkipReburn) {
  Rbm rbm(5, 4);
  MetropolisConfig cfg;
  cfg.burn_in = 100;
  cfg.persistent_chains = true;
  cfg.num_chains = 1;
  MetropolisSampler sampler(rbm, cfg);
  Matrix out(10, 5);
  sampler.sample(out);
  const std::uint64_t first = sampler.statistics().forward_passes;
  sampler.sample(out);
  const std::uint64_t second = sampler.statistics().forward_passes - first;
  // Second call: 1 re-evaluation + 10 collection steps, no burn-in.
  EXPECT_EQ(second, 11u);
}

TEST(MetropolisSampler, PersistentChainsRunConfiguredReburn) {
  Rbm rbm(5, 4);
  MetropolisConfig cfg;
  cfg.burn_in = 100;
  cfg.persistent_chains = true;
  cfg.reburn_in = 7;
  cfg.num_chains = 1;
  MetropolisSampler sampler(rbm, cfg);
  Matrix out(10, 5);
  sampler.sample(out);  // first call pays the full burn-in
  const std::uint64_t first = sampler.statistics().forward_passes;
  EXPECT_EQ(first, 1u + 100u + 10u);
  sampler.sample(out);
  const std::uint64_t second = sampler.statistics().forward_passes - first;
  // Second call: 1 re-evaluation + reburn_in re-equilibration + 10 collection.
  EXPECT_EQ(second, 1u + 7u + 10u);
}

TEST(MetropolisSampler, DeterministicPerSeed) {
  Rbm rbm(5, 5);
  randomize_parameters(rbm, 7);
  MetropolisConfig cfg;
  cfg.burn_in = 30;
  cfg.seed = 8;
  MetropolisSampler a(rbm, cfg), b(rbm, cfg);
  Matrix xa(12, 5), xb(12, 5);
  a.sample(xa);
  b.sample(xb);
  for (std::size_t i = 0; i < xa.size(); ++i)
    EXPECT_EQ(xa.data()[i], xb.data()[i]);
}

TEST(MetropolisSampler, SampleWsMatchesSampleBitwise) {
  // The trainer passes its model workspace; the chains must not notice.
  Rbm rbm(6, 5);
  randomize_parameters(rbm, 9);
  MetropolisConfig cfg;
  cfg.burn_in = 40;
  cfg.seed = 10;
  MetropolisSampler plain(rbm, cfg), with_ws(rbm, cfg);
  const auto ws = rbm.make_workspace();
  Matrix xa(16, 6), xb(16, 6);
  for (int call = 0; call < 2; ++call) {
    plain.sample(xa);
    with_ws.sample_ws(xb, ws.get());
    for (std::size_t i = 0; i < xa.size(); ++i)
      ASSERT_EQ(xa.data()[i], xb.data()[i]) << "call " << call;
  }
  EXPECT_EQ(plain.statistics().accepted, with_ws.statistics().accepted);
}

TEST(MetropolisSampler, WarmWorkspaceDrawAllocatesNothingWithTelemetryOn) {
  // A draw records two counters and two histograms by name; with
  // telemetry on, looking the existing instruments up again must not
  // allocate, so a warm draw through a shaped workspace stays off the heap.
  struct TelemetryOn {
    bool was = telemetry::enabled();
    TelemetryOn() { telemetry::set_enabled(true); }
    ~TelemetryOn() { telemetry::set_enabled(was); }
  } telemetry_on;
  Rbm rbm(10, 7);
  randomize_parameters(rbm, 11);
  MetropolisConfig cfg;
  cfg.burn_in = 20;
  cfg.seed = 12;
  cfg.persistent_chains = true;
  MetropolisSampler sampler(rbm, cfg);
  const auto ws = rbm.make_workspace();
  Matrix out(16, 10);
  sampler.sample_ws(out, ws.get());
  sampler.sample_ws(out, ws.get());
  const std::uint64_t before = vqmc::testing::allocation_count();
  sampler.sample_ws(out, ws.get());
  EXPECT_EQ(vqmc::testing::allocation_count(), before);
  if (VQMC_TELEMETRY_COMPILED) {  // the lookups really ran
    const telemetry::MetricsSnapshot snap = telemetry::metrics().snapshot();
    ASSERT_NE(snap.find_counter("sampler.mcmc.batches"), nullptr);
    EXPECT_GE(snap.find_counter("sampler.mcmc.batches")->value, 3u);
  }
}

TEST(MetropolisSampler, PairExchangeConservesMagnetization) {
  Rbm rbm(8, 4);
  randomize_parameters(rbm, 8);
  MetropolisConfig cfg;
  cfg.proposal = ProposalKind::PairExchange;
  cfg.num_chains = 1;
  cfg.burn_in = 0;
  cfg.persistent_chains = true;
  cfg.seed = 9;
  MetropolisSampler sampler(rbm, cfg);
  Matrix out(200, 8);
  sampler.sample(out);
  // All kept states of the single persistent chain share one magnetization
  // (the chain's random start is mixed with overwhelming probability).
  auto magnetization = [&](std::size_t row) {
    Real m = 0;
    for (std::size_t j = 0; j < 8; ++j) m += out(row, j);
    return m;
  };
  const Real m0 = magnetization(0);
  if (m0 > 0 && m0 < 8) {  // swap moves apply; polarized would fall back
    for (std::size_t k = 1; k < out.rows(); ++k)
      ASSERT_EQ(magnetization(k), m0) << "row " << k;
  }
}

TEST(MetropolisSampler, PairExchangeStillSamplesCorrectlyWithinASector) {
  // For a product-Bernoulli RBM restricted to one magnetization sector, the
  // exchange chain must reproduce the conditional Born distribution. Use a
  // model whose distribution is symmetric under permutations within a
  // sector and simply verify the chain moves (acceptance > 0).
  Rbm rbm(6, 3);
  randomize_parameters(rbm, 10);
  MetropolisConfig cfg;
  cfg.proposal = ProposalKind::PairExchange;
  cfg.burn_in = 100;
  cfg.seed = 11;
  MetropolisSampler sampler(rbm, cfg);
  Matrix out(100, 6);
  sampler.sample(out);
  EXPECT_GT(sampler.statistics().acceptance_rate(), 0.05);
}

TEST(MetropolisSampler, InvalidConfigRejected) {
  Rbm rbm(4, 4);
  MetropolisConfig zero_chains;
  zero_chains.num_chains = 0;
  EXPECT_THROW(MetropolisSampler(rbm, zero_chains), Error);
  MetropolisConfig zero_thinning;
  zero_thinning.thinning = 0;
  EXPECT_THROW(MetropolisSampler(rbm, zero_thinning), Error);
}

TEST(MetropolisSampler, IsNotExact) {
  // Exactness is the sampler kind: MCMC, never the exact AUTO.
  Rbm rbm(4, 4);
  MetropolisSampler sampler(rbm, {});
  EXPECT_EQ(sampler.name(), "MCMC");
}

TEST(MetropolisSampler, StateRoundTripResumesPersistentChains) {
  Made made(5, 6);
  made.initialize(8);
  MetropolisConfig cfg;
  cfg.num_chains = 2;
  cfg.burn_in = 20;
  cfg.persistent_chains = true;
  cfg.seed = 4;

  MetropolisSampler a(made, cfg);
  MetropolisSampler b(made, cfg);
  Matrix batch_a(6, 5);
  Matrix batch_b(6, 5);
  a.sample(batch_a);
  b.sample(batch_b);

  // A restored sampler must resume the chains (positions, log-psi values and
  // RNG stream) exactly where the checkpoint froze them.
  MetropolisConfig other = cfg;
  other.seed = 999;
  MetropolisSampler restored(made, other);
  restored.restore_state(a.serialize_state());
  restored.sample(batch_a);
  b.sample(batch_b);
  for (std::size_t k = 0; k < batch_a.rows(); ++k)
    for (std::size_t j = 0; j < batch_a.cols(); ++j)
      EXPECT_EQ(batch_a(k, j), batch_b(k, j));

  EXPECT_THROW(restored.restore_state({1, 2}), Error);
}

/// A sampler over a 5-spin RBM with 2 chains, live after one draw: the
/// state `good` it serializes then restores, and every rejected restore
/// below must leave serialize_state() as it was.
struct LiveSampler {
  Rbm rbm{5, 4};
  MetropolisSampler sampler;
  std::vector<std::uint64_t> good;

  LiveSampler() : sampler((randomize_parameters(rbm, 30), rbm), config()) {
    Matrix out(4, 5);
    sampler.sample(out);
    good = sampler.serialize_state();
  }
  static MetropolisConfig config() {
    MetropolisConfig cfg;
    cfg.burn_in = 10;
    cfg.persistent_chains = true;
    cfg.seed = 31;
    return cfg;
  }
  void expect_rejected(const std::vector<std::uint64_t>& bad) {
    const std::vector<std::uint64_t> before = sampler.serialize_state();
    EXPECT_THROW(sampler.restore_state(bad), Error);
    EXPECT_EQ(sampler.serialize_state(), before);
    EXPECT_NO_THROW(sampler.restore_state(good));
    EXPECT_EQ(sampler.serialize_state(), good);
  }
};

TEST(MetropolisSampler, RestoreOfALiveFlagWithoutChainsChangesNothing) {
  // Five words whose flag says the chains follow.
  Rbm rbm(5, 4);
  MetropolisSampler sampler(rbm, LiveSampler::config());
  const std::vector<std::uint64_t> before = sampler.serialize_state();
  ASSERT_EQ(before.size(), 5u);
  for (const std::uint64_t flag : {std::uint64_t(1),
                                   MetropolisSampler::kLiveChains}) {
    EXPECT_THROW(sampler.restore_state({1, 2, 3, 4, flag}), Error);
    EXPECT_EQ(sampler.serialize_state(), before) << "flag " << flag;
  }
  LiveSampler live;
  live.expect_rejected({1, 2, 3, 4, MetropolisSampler::kLiveChains});
}

TEST(MetropolisSampler, RestoreRejectsAnUnknownChainFlag) {
  LiveSampler live;
  ASSERT_EQ(live.good[4], MetropolisSampler::kLiveChains);
  ASSERT_EQ(live.good.size(), 5u + 2u * 5u);
  // Flag 7 over the chain words alone and with two more words after them.
  std::vector<std::uint64_t> bad = live.good;
  bad[4] = 7;
  live.expect_rejected(bad);
  bad.push_back(0);
  bad.push_back(0);
  live.expect_rejected(bad);
}

TEST(MetropolisSampler, RestoreRejectsAChainEntryThatIsNotABit) {
  LiveSampler live;
  for (const Real entry : {Real(2), Real(0.5), Real(-1),
                           std::numeric_limits<Real>::quiet_NaN()}) {
    std::vector<std::uint64_t> bad = live.good;
    bad[5 + 3] = std::bit_cast<std::uint64_t>(entry);
    live.expect_rejected(bad);
  }
}

TEST(MetropolisSampler, RestoreRejectsTheLayoutWithChainLogPsiWords) {
  // The layout before the chain walk: flag 1, the c x n chain states, then
  // c log-psi words.
  LiveSampler live;
  std::vector<std::uint64_t> old = live.good;
  old[4] = 1;
  old.push_back(std::bit_cast<std::uint64_t>(Real(-1.25)));
  old.push_back(std::bit_cast<std::uint64_t>(Real(-2.5)));
  live.expect_rejected(old);
}

}  // namespace
}  // namespace vqmc
