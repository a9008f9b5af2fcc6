/// \file test_chain_walk.cpp
/// \brief The chain walk MetropolisSampler scores its proposals through
/// (WavefunctionModel::walk_start / walk_score / walk_accept, DESIGN.md
/// §5n): the RBM's O(h) walk against two full forwards, its theta against
/// a fresh forward after many accepted moves, the default walk's
/// arithmetic, NaN weights, and a parameter write between persistent draws.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/local_energy.hpp"
#include "nn/made.hpp"
#include "nn/rbm.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "sampler/metropolis_sampler.hpp"
#include "tensor/kernels.hpp"

namespace vqmc {
namespace {

using ChainMove = WavefunctionModel::ChainMove;
using ChainWalk = WavefunctionModel::ChainWalk;

void randomize_parameters(WavefunctionModel& model, std::uint64_t seed,
                          Real scale) {
  rng::Xoshiro256 gen(seed);
  for (Real& p : model.parameters()) p = rng::uniform(gen, -scale, scale);
}

/// A walk over c random chain states of n spins.
ChainWalk random_walk(std::size_t c, std::size_t n, std::uint64_t seed) {
  rng::Xoshiro256 gen(seed);
  ChainWalk walk;
  walk.states = Matrix(c, n);
  for (std::size_t i = 0; i < walk.states.size(); ++i)
    walk.states.data()[i] = rng::bernoulli(gen, 0.5) ? 1 : 0;
  walk.proposals = walk.states;
  walk.moves.resize(c);
  walk.ratio = Vector(c);
  walk.log_psi = Vector(c);
  walk.proposal_log_psi = Vector(c);
  return walk;
}

void flip(std::span<Real> row, const ChainMove& move) {
  row[move.site] = 1 - row[move.site];
  if (move.partner != move.site) row[move.partner] = 1 - row[move.partner];
}

/// A single flip, or (when `pair` and the chain holds both values) the
/// exchange of a random up site with a random down site.
ChainMove random_move(std::span<const Real> x, bool pair,
                      rng::Xoshiro256& gen) {
  const std::size_t n = x.size();
  const std::size_t site = std::size_t(rng::uniform_index(gen, n));
  if (pair)
    for (std::size_t step = 1; step < n; ++step) {
      const std::size_t other = (site + step) % n;
      if (x[other] != x[site]) return {site, other};
    }
  return {site, site};
}

/// Draws moves into walk.moves and applies them to walk.proposals.
void propose(ChainWalk& walk, bool pair, rng::Xoshiro256& gen) {
  for (std::size_t chain = 0; chain < walk.moves.size(); ++chain) {
    walk.moves[chain] = random_move(walk.states.row(chain), pair, gen);
    flip(walk.proposals.row(chain), walk.moves[chain]);
  }
}

/// Settles every chain's proposal: walk_accept and the move into the state
/// when `accept[chain]`, the proposal back to the state otherwise.
void settle(const WavefunctionModel& model, ChainWalk& walk,
            const std::vector<bool>& accept, WavefunctionModel::Workspace* ws) {
  for (std::size_t chain = 0; chain < walk.moves.size(); ++chain) {
    if (accept[chain]) {
      model.walk_accept(walk, chain, ws);
      flip(walk.states.row(chain), walk.moves[chain]);
    } else {
      flip(walk.proposals.row(chain), walk.moves[chain]);
    }
  }
}

TEST(ChainWalk, RbmRatiosMatchTwoFullForwards) {
  // Single flips and pair exchanges; the two acceptance rules decide the
  // moves, so theta is checked along the chains each rule walks.  Weights
  // up to |W| = 40 (ratios of thousands) and n = 1 (pairs fall back to
  // flips).
  for (const std::size_t n : {1ul, 7ul, 128ul})
    for (const Real scale : {0.05, 1.0, 40.0})
      for (const AcceptanceRule rule :
           {AcceptanceRule::MetropolisHastings, AcceptanceRule::HeatBath})
        for (const bool pair : {false, true}) {
          const std::size_t h = n == 128 ? 128 : n + 3;
          Rbm rbm(n, h);
          randomize_parameters(rbm, 40 + n, scale);
          const auto ws = rbm.make_workspace();
          ChainWalk walk = random_walk(2, n, 41 + n);
          rbm.walk_start(walk, ws.get());
          rng::Xoshiro256 gen(42 + n);
          Vector before(2), after(2);
          const std::size_t steps = n == 128 ? 60 : 200;
          for (std::size_t step = 0; step < steps; ++step) {
            propose(walk, pair, gen);
            rbm.walk_score(walk, ws.get());
            rbm.log_psi(walk.states, before.span());
            rbm.log_psi(walk.proposals, after.span());
            std::vector<bool> accept(2);
            for (std::size_t chain = 0; chain < 2; ++chain) {
              const Real want = after[chain] - before[chain];
              const Real bound = kFlipRatioTolerance *
                                 std::max(Real(1), std::abs(before[chain]));
              ASSERT_NEAR(walk.ratio[chain], want, bound)
                  << "n=" << n << " scale=" << scale << " pair=" << pair
                  << " step " << step << " chain " << chain;
              const Real dlog = walk.ratio[chain];
              accept[chain] =
                  rule == AcceptanceRule::HeatBath
                      ? rng::uniform01(gen) < sigmoid(2 * dlog)
                      : dlog >= 0 || rng::uniform01(gen) < std::exp(2 * dlog);
            }
            settle(rbm, walk, accept, ws.get());
          }
        }
}

TEST(ChainWalk, RbmThetaEqualsAFreshForwardAfterTenThousandSteps) {
  // Every proposal accepted: 10^4 shifts added to each chain's theta, the
  // worst case for rounding drift.  A fresh walk_start on the final states
  // is the fresh forward (one gemm).
  const std::size_t n = 24, h = 20, chains = 3;
  Rbm rbm(n, h);
  randomize_parameters(rbm, 50, 0.5);
  const auto ws = rbm.make_workspace();
  ChainWalk walk = random_walk(chains, n, 51);
  rbm.walk_start(walk, ws.get());
  rng::Xoshiro256 gen(52);
  const std::vector<bool> accept_all(chains, true);
  for (std::size_t step = 0; step < 10000; ++step) {
    propose(walk, step % 3 == 0, gen);
    rbm.walk_score(walk, ws.get());
    settle(rbm, walk, accept_all, ws.get());
  }
  const auto fresh_ws = rbm.make_workspace();
  ChainWalk fresh = walk;
  rbm.walk_start(fresh, fresh_ws.get());
  const Matrix& theta = dynamic_cast<Rbm::Workspace&>(*ws).theta;
  const Matrix& want = dynamic_cast<Rbm::Workspace&>(*fresh_ws).theta;
  // Relative to the size of theta_l's terms, |c_l| + sum_i |W_li|.
  const std::span<const Real> params = std::as_const(rbm).parameters();
  for (std::size_t l = 0; l < h; ++l) {
    Real terms = std::abs(params[h * n + l]);
    for (std::size_t i = 0; i < n; ++i) terms += std::abs(params[l * n + i]);
    for (std::size_t chain = 0; chain < chains; ++chain)
      EXPECT_NEAR(theta(chain, l), want(chain, l), 1e-12 * terms)
          << "unit " << l << " chain " << chain;
  }
}

TEST(ChainWalk, RbmKeptLogCoshIsBitwiseTheSumOfThetaAfterPairExchanges) {
  // 10^4 pair exchanges, a single flip every tenth step, each proposal
  // accepted with probability 1/2.  After every step a chain's kept
  // sum log cosh theta, whenever it is marked exact, is bitwise
  // sum_log_cosh of its theta row; a pair exchange's score marks it exact,
  // so after the last pair step every chain's is.
  const std::size_t n = 24, h = 20, chains = 3;
  Rbm rbm(n, h);
  randomize_parameters(rbm, 60, 0.5);
  const auto ws = rbm.make_workspace();
  const Rbm::Workspace& own = dynamic_cast<Rbm::Workspace&>(*ws);
  ChainWalk walk = random_walk(chains, n, 61);
  rbm.walk_start(walk, ws.get());
  rng::Xoshiro256 gen(62);
  const auto expect_kept_sums = [&](std::size_t step) {
    for (std::size_t chain = 0; chain < chains; ++chain) {
      if (!own.log_cosh_fresh[chain]) continue;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(own.log_cosh[chain]),
                std::bit_cast<std::uint64_t>(
                    sum_log_cosh(own.theta.row(chain))))
          << "step " << step << " chain " << chain;
    }
  };
  std::size_t pair_steps = 0;
  for (std::size_t step = 0; pair_steps < 10000; ++step) {
    const bool pair = step % 10 != 9;
    pair_steps += pair ? 1 : 0;
    propose(walk, pair, gen);
    rbm.walk_score(walk, ws.get());
    std::vector<bool> accept(chains);
    for (std::size_t chain = 0; chain < chains; ++chain)
      accept[chain] = rng::uniform01(gen) < 0.5;
    settle(rbm, walk, accept, ws.get());
    expect_kept_sums(step);
    if (HasFatalFailure()) return;
  }
  for (std::size_t chain = 0; chain < chains; ++chain)
    EXPECT_TRUE(own.log_cosh_fresh[chain]) << "chain " << chain;
}

TEST(ChainWalk, DefaultWalkIsOneBatchedForwardMinusTheChainsLogPsi) {
  Made made(6, 9);
  made.initialize(60);
  ChainWalk walk = random_walk(3, 6, 61);
  made.walk_start(walk, nullptr);
  Vector want(3);
  made.log_psi(walk.states, want.span());
  for (std::size_t chain = 0; chain < 3; ++chain)
    EXPECT_EQ(walk.log_psi[chain], want[chain]);
  rng::Xoshiro256 gen(62);
  propose(walk, true, gen);
  made.walk_score(walk, nullptr);
  Vector proposed(3);
  made.log_psi(walk.proposals, proposed.span());
  for (std::size_t chain = 0; chain < 3; ++chain)
    EXPECT_EQ(walk.ratio[chain], proposed[chain] - want[chain]);
  made.walk_accept(walk, 1, nullptr);
  EXPECT_EQ(walk.log_psi[1], proposed[1]);
  EXPECT_EQ(walk.log_psi[0], want[0]);
}

TEST(ChainWalk, RbmWalkNeedsItsOwnWorkspace) {
  Rbm rbm(5, 4);
  Made made(5, 6);
  ChainWalk walk = random_walk(2, 5, 63);
  EXPECT_THROW(rbm.walk_start(walk, nullptr), Error);
  const auto foreign = made.make_workspace();
  EXPECT_THROW(rbm.walk_start(walk, foreign.get()), Error);
}

TEST(ChainWalk, NanWeightIsRejectedAndCounted) {
  Rbm rbm(6, 5);
  randomize_parameters(rbm, 70, 0.4);
  rbm.parameters()[7] = std::numeric_limits<Real>::quiet_NaN();  // W(1, 1)

  // The walk scores every proposal NaN: theta_1 is NaN on every chain.
  const auto ws = rbm.make_workspace();
  ChainWalk walk = random_walk(2, 6, 71);
  rbm.walk_start(walk, ws.get());
  rng::Xoshiro256 gen(72);
  for (const bool pair : {false, true}) {
    propose(walk, pair, gen);
    rbm.walk_score(walk, ws.get());
    for (std::size_t chain = 0; chain < 2; ++chain)
      EXPECT_TRUE(std::isnan(walk.ratio[chain])) << "pair=" << pair;
    settle(rbm, walk, {false, false}, ws.get());
  }

  // The sampler rejects and counts every one, and its draws stay bits.
  MetropolisConfig cfg;
  cfg.burn_in = 20;
  cfg.seed = 73;
  MetropolisSampler sampler(rbm, cfg);
  Matrix out(8, 6);
  sampler.sample(out);
  const SamplerStatistics& stats = sampler.statistics();
  EXPECT_GT(stats.proposals, 0u);
  EXPECT_EQ(stats.nonfinite_rejections, stats.proposals);
  EXPECT_EQ(stats.accepted, 0u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const Real v = out.data()[i];
    EXPECT_TRUE(v == 0 || v == 1);
  }
}

TEST(ChainWalk, ParameterWriteBetweenPersistentDrawsLeavesNoStaleState) {
  // The second draw after a parameter write is bitwise the draw of a fresh
  // sampler restored to the first's state: nothing the walk derived from
  // the old parameters survives the draw that built it.
  Rbm rbm(9, 7);
  randomize_parameters(rbm, 80, 0.5);
  MetropolisConfig cfg;
  cfg.num_chains = 2;
  cfg.burn_in = 40;
  cfg.reburn_in = 5;
  cfg.persistent_chains = true;
  cfg.seed = 81;
  MetropolisSampler first(rbm, cfg);
  Matrix warm(12, 9);
  first.sample(warm);
  const std::vector<std::uint64_t> state = first.serialize_state();
  ASSERT_EQ(state[4], MetropolisSampler::kLiveChains);

  for (Real& p : rbm.parameters()) p = -1.5 * p + 0.01;
  Matrix after_write(12, 9);
  first.sample(after_write);

  MetropolisConfig other = cfg;
  other.seed = 999;
  MetropolisSampler fresh(rbm, other);
  fresh.restore_state(state);
  Matrix want(12, 9);
  fresh.sample(want);
  for (std::size_t i = 0; i < want.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint64_t>(after_write.data()[i]),
              std::bit_cast<std::uint64_t>(want.data()[i]))
        << "entry " << i;
}

}  // namespace
}  // namespace vqmc
