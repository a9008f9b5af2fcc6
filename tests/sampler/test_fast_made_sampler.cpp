#include "sampler/fast_made_sampler.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include <limits>
#include <utility>

#include "hamiltonian/hamiltonian.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "sampler/autoregressive_sampler.hpp"
#include "sampler/diagnostics.hpp"
#include "support/telemetry_gate.hpp"
#include "telemetry/metrics_registry.hpp"

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

TEST(FastMadeSampler, MatchesBaselineSamplerBitForBit) {
  // Same seed, same Bernoulli-consumption order, conditionals equal up to
  // rounding: the two samplers should emit identical batches (a draw would
  // have to land within ~1 ulp of a conditional to differ).
  Made made(6, 9);
  randomize_parameters(made, 1);
  AutoregressiveSampler baseline(made, 7);
  FastMadeSampler fast(made, 7);
  Matrix a(512, 6), b(512, 6);
  baseline.sample(a);
  fast.sample(b);
  std::size_t differing = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    differing += a.data()[i] != b.data()[i] ? 1 : 0;
  EXPECT_EQ(differing, 0u);
}

TEST(FastMadeSampler, EmpiricalDistributionMatchesExactModel) {
  Made made(4, 6);
  randomize_parameters(made, 2);
  FastMadeSampler sampler(made, 3);
  const std::size_t draws = 20000;
  Matrix out(draws, 4);
  sampler.sample(out);
  EXPECT_LT(total_variation_distance(empirical_distribution(out),
                                     exact_distribution(made)),
            0.03);
}

TEST(FastMadeSampler, TracksParameterUpdatesBetweenCalls) {
  // Masked weights are re-materialized per call, so moving the parameters
  // must change the sampled distribution.
  Made made(4, 5);
  randomize_parameters(made, 4);
  FastMadeSampler sampler(made, 5);
  Matrix before(5000, 4);
  sampler.sample(before);
  // Push the first conditional hard toward 1.
  made.parameters()[made.num_parameters() - 4] = 25.0;  // b2[0]
  Matrix after(5000, 4);
  sampler.sample(after);
  Real frequency = 0;
  for (std::size_t k = 0; k < after.rows(); ++k) frequency += after(k, 0);
  EXPECT_GT(frequency / Real(after.rows()), 0.99);
}

TEST(FastMadeSampler, AccountingMatchesAlgorithmOne) {
  Made made(7, 4);
  FastMadeSampler sampler(made, 6);
  Matrix out(16, 7);
  sampler.sample(out);
  EXPECT_EQ(sampler.statistics().forward_passes, 7u);
  EXPECT_EQ(sampler.name(), "AUTO");
}

TEST(FastMadeSampler, CountsOnTheAutoInstruments) {
  // One AUTO sampler, one set of instrument names: a batch adds n to the
  // same forward-pass counter Algorithm 1 uses.
  VQMC_SKIP_WITHOUT_TELEMETRY();
  telemetry::MetricsRegistry registry;
  const telemetry::ScopedMetricsRegistry scope(registry);
  Made made(7, 4);
  FastMadeSampler sampler(made, 6);
  Matrix out(16, 7);
  sampler.sample(out);
  std::uint64_t forward_passes = 0, samples = 0;
  for (const auto& counter : registry.snapshot().counters) {
    if (counter.name == "sampler.auto.forward_passes")
      forward_passes = counter.value;
    if (counter.name == "sampler.auto.samples") samples = counter.value;
  }
  EXPECT_EQ(forward_passes, 7u);
  EXPECT_EQ(samples, 16u);
}

TEST(FastMadeSampler, WrongShapeRejected) {
  Made made(4, 3);
  FastMadeSampler sampler(made, 1);
  Matrix wrong(4, 5);
  EXPECT_THROW(sampler.sample(wrong), Error);
}

TEST(FastMadeSampler, MatchesBaselineAcrossSizes) {
  // The batched conditional engine against the forward-pass sampler,
  // across spin counts from the minimum (MADE needs n >= 2) through
  // n = 1000, with a batch size that exercises both a full 4-row kernel
  // tile and a tail row.  The cyclic sizes (h > n - 1) put several units on
  // each degree; (100, 205) and (130, 300) span more than one 64-site
  // block, so they run the deferred far segment of the rank-1 update.
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {2, 11}, {7, 11}, {100, 11}, {300, 11},
      {1000, 11}, {64, 86}, {100, 205}, {130, 300}};
  for (const auto& [n, h] : shapes) {
    Made made(n, h);
    randomize_parameters(made, 1000 + n + h);
    AutoregressiveSampler baseline(made, 17);
    FastMadeSampler fast(made, 17);
    Matrix a(5, n), b(5, n);
    baseline.sample(a);
    fast.sample(b);
    std::size_t differing = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
      differing += a.data()[i] != b.data()[i] ? 1 : 0;
    EXPECT_EQ(differing, 0u) << "n = " << n << ", h = " << h;
  }
}

TEST(FastMadeSampler, WorkspaceVariantMatchesAndReuses) {
  // sample_ws with a caller-owned Made::Workspace must reproduce the plain
  // sample() stream exactly, including across repeated (reused) calls.
  Made made(9, 13);
  randomize_parameters(made, 6);
  FastMadeSampler plain(made, 23), with_ws(made, 23);
  Made::Workspace ws;
  Matrix a(37, 9), b(37, 9);
  for (int round = 0; round < 3; ++round) {
    plain.sample(a);
    with_ws.sample_ws(b, &ws);
    for (std::size_t i = 0; i < a.size(); ++i)
      ASSERT_EQ(a.data()[i], b.data()[i]) << "round " << round;
  }
}

TEST(FastMadeSampler, NonfiniteConditionalsClampedCountedAndBaselineExact) {
  // A NaN output bias makes every site-2 conditional NaN. The engine must
  // clamp those draws to an unbiased coin and count them — exactly like the
  // baseline sampler — instead of feeding NaN into bernoulli (which
  // compares false and silently biased every later site before this fix).
  constexpr std::size_t n = 8, h = 12, bs = 64;
  Made made(n, h);
  randomize_parameters(made, 7);
  made.parameters()[made.num_parameters() - n + 2] =  // b2[2]
      std::numeric_limits<Real>::quiet_NaN();

  AutoregressiveSampler baseline(made, 31);
  FastMadeSampler fast(made, 31);
  Matrix a(bs, n), b(bs, n);
  baseline.sample(a);
  fast.sample(b);
  EXPECT_EQ(baseline.statistics().nonfinite_rejections, bs);
  EXPECT_EQ(fast.statistics().nonfinite_rejections, bs);
  // Clamped draws are fair coins from the same stream position, so the two
  // samplers stay bit-identical even on a sick model.
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(a.data()[i], b.data()[i]);
  // Site 2 still received draws (not stuck all-zero, the silent-bias mode).
  std::size_t ones_at_site2 = 0;
  for (std::size_t k = 0; k < bs; ++k) ones_at_site2 += b(k, 2) != 0 ? 1 : 0;
  EXPECT_GT(ones_at_site2, 0u);
  EXPECT_LT(ones_at_site2, bs);
}

TEST(FastMadeSampler, ClampConsumesExactlyOneUniformKeepingStreamAligned) {
  // The guard consumes the uniform either way, so the RNG stream position
  // after a batch is independent of whether any clamp fired — a healthy
  // run's stream is bit-identical to one where the guard never existed.
  constexpr std::size_t n = 6, h = 9, bs = 21;
  Made healthy(n, h);
  randomize_parameters(healthy, 8);
  Made sick(n, h);
  randomize_parameters(sick, 8);
  sick.parameters()[sick.num_parameters() - n + 1] =  // b2[1]
      std::numeric_limits<Real>::quiet_NaN();

  FastMadeSampler on_healthy(healthy, 57), on_sick(sick, 57);
  Matrix out(bs, n);
  on_healthy.sample(out);
  on_sick.sample(out);
  EXPECT_EQ(on_sick.statistics().nonfinite_rejections, bs);
  EXPECT_EQ(on_healthy.serialize_state(), on_sick.serialize_state());
}

TEST(FastMadeSampler, NonfiniteInstrumentCreatedUnconditionally) {
  // The cross-rank metrics merge requires every rank to expose the same
  // instrument set; the counter must exist (at zero) even when no clamp
  // ever fires on this rank.
  VQMC_SKIP_WITHOUT_TELEMETRY();
  telemetry::MetricsRegistry registry;
  const telemetry::ScopedMetricsRegistry scope(registry);
  Made made(5, 6);
  randomize_parameters(made, 9);
  FastMadeSampler sampler(made, 11);
  Matrix out(8, 5);
  sampler.sample(out);
  bool found = false;
  for (const auto& counter : registry.snapshot().counters) {
    if (counter.name == "sampler.nonfinite_rejections") {
      found = true;
      EXPECT_EQ(counter.value, 0u);
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace vqmc
