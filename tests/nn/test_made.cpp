#include "nn/made.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "hamiltonian/hamiltonian.hpp"
#include "nn/gradient_check.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "support/alloc_count.hpp"
#include "support/gradient_accumulation.hpp"
#include "support/made_masks.hpp"

namespace vqmc {
namespace {

Matrix all_configurations(std::size_t n) {
  const std::size_t dim = std::size_t(1) << n;
  Matrix batch(dim, n);
  for (std::uint64_t idx = 0; idx < dim; ++idx)
    decode_basis_state(idx, batch.row(idx));
  return batch;
}

Matrix random_bits(std::size_t bs, std::size_t n, std::uint64_t seed) {
  rng::Xoshiro256 gen(seed);
  Matrix batch(bs, n);
  for (std::size_t i = 0; i < batch.size(); ++i)
    batch.data()[i] = rng::bernoulli(gen, 0.5) ? 1 : 0;
  return batch;
}

void randomize_parameters(WavefunctionModel& model, std::uint64_t seed,
                          Real scale = 0.8) {
  rng::Xoshiro256 gen(seed);
  for (Real& p : model.parameters()) p = rng::uniform(gen, -scale, scale);
}

TEST(Made, ParameterCountMatchesPaperFormula) {
  // d = 2hn + h + n (Section 4).
  const std::size_t n = 7, h = 11;
  const Made made(n, h);
  EXPECT_EQ(made.num_parameters(), 2 * h * n + h + n);
}

TEST(Made, DefaultHiddenIsFiveLogSquared) {
  EXPECT_EQ(made_default_hidden(100),
            std::size_t(std::lround(5 * std::log(100.0) * std::log(100.0))));
  EXPECT_GE(made_default_hidden(2), 4u);
}

TEST(Made, DistributionIsNormalized) {
  // The defining autoregressive property (Eq. 7): sum_x pi(x) = 1 exactly.
  for (std::uint64_t seed : {0ULL, 1ULL, 2ULL}) {
    Made made(6, 9);
    randomize_parameters(made, 100 + seed);
    const Matrix batch = all_configurations(6);
    Vector lp(batch.rows());
    made.log_psi(batch, lp.span());
    Real total = 0;
    for (std::size_t k = 0; k < batch.rows(); ++k)
      total += std::exp(2 * lp[k]);  // pi = psi^2
    EXPECT_NEAR(total, 1.0, 1e-10) << "seed " << seed;
  }
}

TEST(Made, ConditionalsRespectAutoregressiveMasks) {
  // Changing x_j must not affect conditional i for any i <= j.
  const std::size_t n = 6, h = 13;
  Made made(n, h);
  randomize_parameters(made, 5);
  Matrix base = random_bits(1, n, 6);
  Matrix cond_base;
  made.conditionals(base, cond_base);
  for (std::size_t j = 0; j < n; ++j) {
    Matrix perturbed = base;
    perturbed(0, j) = 1 - perturbed(0, j);
    Matrix cond;
    made.conditionals(perturbed, cond);
    for (std::size_t i = 0; i <= j; ++i)
      EXPECT_EQ(cond(0, i), cond_base(0, i))
          << "output " << i << " depends on input " << j;
  }
}

TEST(Made, FirstConditionalIsInputIndependent) {
  Made made(5, 8);
  randomize_parameters(made, 7);
  Matrix a = random_bits(1, 5, 8);
  Matrix b = random_bits(1, 5, 9);
  Matrix ca, cb;
  made.conditionals(a, ca);
  made.conditionals(b, cb);
  EXPECT_EQ(ca(0, 0), cb(0, 0));
}

TEST(Made, MasksHaveDocumentedStructure) {
  // The model keeps its masks only as the plan's prefix lengths; they must
  // cover exactly the mask entries of the degree rule: unit k reads input j
  // iff j + 1 <= m_k, and output i reads unit k iff i + 1 > m_k.
  const std::size_t n = 5, h = 9;
  const Made made(n, h);
  const Matrix mask1 = testing::made_input_mask(n, h);
  const Matrix mask2 = testing::made_output_mask(n, h);
  const std::vector<std::size_t> degrees = testing::made_degrees(n, h);
  for (std::size_t k = 0; k < h; ++k) {
    const std::size_t mk = degrees[k];
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_EQ(mask1(k, j), (j + 1 <= mk) ? 1 : 0);
      EXPECT_EQ(j < made.plan().degree[k], mask1(k, j) != 0);
    }
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(mask2(i, k), (i + 1 > mk) ? 1 : 0);
      EXPECT_EQ(k < made.plan().degree_end[i], mask2(i, k) != 0);
    }
  }
}

TEST(Made, GradientMatchesFiniteDifferences) {
  Made made(5, 7);
  randomize_parameters(made, 11);
  const Matrix batch = random_bits(6, 5, 12);
  Vector coeff(6);
  rng::Xoshiro256 gen(13);
  for (std::size_t k = 0; k < 6; ++k) coeff[k] = rng::uniform(gen, -1.0, 1.0);
  const GradientCheckResult r =
      check_log_psi_gradient(made, batch, coeff.span());
  EXPECT_LT(r.max_abs_error, 1e-7) << "worst parameter " << r.worst_index;
}

TEST(Made, PerSampleGradientMatchesFiniteDifferences) {
  Made made(4, 6);
  randomize_parameters(made, 14);
  const Matrix batch = random_bits(5, 4, 15);
  const GradientCheckResult r = check_per_sample_gradient(made, batch);
  EXPECT_LT(r.max_abs_error, 1e-7);
}

TEST(Made, PerSampleGradientsSumToBatchGradient) {
  Made made(5, 8);
  randomize_parameters(made, 16);
  const std::size_t bs = 7;
  const Matrix batch = random_bits(bs, 5, 17);
  const std::size_t d = made.num_parameters();

  Matrix per_sample(bs, d);
  made.log_psi_gradient_per_sample(batch, per_sample);

  Vector coeff(bs);
  coeff.fill(1.0);
  Vector batch_grad(d);
  made.accumulate_log_psi_gradient(batch, coeff.span(), batch_grad.span());

  for (std::size_t i = 0; i < d; ++i) {
    Real acc = 0;
    for (std::size_t k = 0; k < bs; ++k) acc += per_sample(k, i);
    EXPECT_NEAR(acc, batch_grad[i], 1e-9);
  }
}

TEST(Made, GradientAccumulatesOntoANonzeroGradient) {
  // W1 and W2 accumulate in place into their blocks of grad, inside the
  // masks only: with the natural degree order (h <= n - 1) and with cyclic
  // degrees (h > n - 1).
  constexpr Real kGradTol = 1e-10;
  for (const auto& [n, h] : {std::pair<std::size_t, std::size_t>{9, 6},
                             std::pair<std::size_t, std::size_t>{6, 13}}) {
    SCOPED_TRACE("n " + std::to_string(n) + " h " + std::to_string(h));
    Made made(n, h);
    randomize_parameters(made, 17 + h);
    const std::size_t bs = 11;
    const Matrix batch = random_bits(bs, n, 23 + h);
    Vector coeff(bs);
    rng::Xoshiro256 gen(27 + h);
    for (std::size_t k = 0; k < bs; ++k)
      coeff[k] = rng::uniform(gen, -1.0, 1.0);
    // Layout [W1 | b1 | W2 | b2]: the in-mask weights and every bias.
    const Matrix m1 = testing::made_input_mask(n, h);
    const Matrix m2 = testing::made_output_mask(n, h);
    std::vector<bool> touched;
    for (std::size_t i = 0; i < m1.size(); ++i)
      touched.push_back(m1.data()[i] != 0);
    touched.insert(touched.end(), h, true);
    for (std::size_t i = 0; i < m2.size(); ++i)
      touched.push_back(m2.data()[i] != 0);
    touched.insert(touched.end(), n, true);
    testing::expect_gradient_accumulates_onto(made, batch, coeff.span(),
                                              touched, 29 + h, kGradTol);
  }
}

TEST(Made, FirstGradientOnAFreshWorkspaceAllocatesOnlyBatchRows) {
  // The weight gradients accumulate into grad, so a fresh workspace grows
  // only its bs-row activations and signals: a1, h1, g1 (bs x h) and p, g2
  // (bs x n); no weight-shaped scratch.
  const std::size_t n = 40, h = 30, bs = 4;
  Made made(n, h);
  randomize_parameters(made, 31);
  const Matrix batch = random_bits(bs, n, 32);
  Vector coeff(bs);
  coeff.fill(0.5);
  Vector grad(made.num_parameters());
  Made::Workspace ws;
  const std::uint64_t before = vqmc::testing::allocated_bytes();
  made.accumulate_log_psi_gradient_ws(batch, coeff.span(), grad.span(), &ws);
  const std::uint64_t bytes = vqmc::testing::allocated_bytes() - before;
  const std::uint64_t rows = (3 * bs * h + 2 * bs * n) * sizeof(Real);
  EXPECT_LE(bytes, rows + 4096);
}

TEST(Made, ConstructorAllocatesOnlyTheParametersAndAnOrderNPlusHPlan) {
  // The plan is built from the degree counts: beyond the parameter vector
  // the constructor allocates O(n + h) of prefix lengths and offsets, and
  // no dense h x n mask (natural, cyclic and paper-default widths).
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {1000, 239}, {64, 86}, {130, 300}};
  for (const auto& [n, h] : shapes) {
    SCOPED_TRACE("n " + std::to_string(n) + " h " + std::to_string(h));
    const std::uint64_t before = vqmc::testing::allocated_bytes();
    const Made made(n, h);
    const std::uint64_t bytes = vqmc::testing::allocated_bytes() - before;
    const std::uint64_t params = made.num_parameters() * sizeof(Real);
    EXPECT_LE(bytes, params + 12 * sizeof(std::size_t) * (n + h) + 1024);
  }
}

TEST(Made, CloneIsIndependentDeepCopy) {
  Made made(4, 5);
  randomize_parameters(made, 18);
  auto copy = made.clone();
  EXPECT_EQ(copy->name(), "MADE");
  EXPECT_EQ(copy->num_parameters(), made.num_parameters());

  const Matrix batch = random_bits(3, 4, 19);
  Vector lp_orig(3), lp_copy(3);
  made.log_psi(batch, lp_orig.span());
  copy->log_psi(batch, lp_copy.span());
  for (std::size_t k = 0; k < 3; ++k) EXPECT_EQ(lp_orig[k], lp_copy[k]);

  // Mutating the copy must not affect the original.
  copy->parameters()[0] += 1.0;
  Vector lp_after(3);
  made.log_psi(batch, lp_after.span());
  for (std::size_t k = 0; k < 3; ++k) EXPECT_EQ(lp_orig[k], lp_after[k]);
}

TEST(Made, InitializeIsDeterministicPerSeed) {
  Made a(6, 7), b(6, 7);
  a.initialize(33);
  b.initialize(33);
  for (std::size_t i = 0; i < a.num_parameters(); ++i)
    EXPECT_EQ(a.parameters()[i], b.parameters()[i]);
  b.initialize(34);
  bool any_different = false;
  for (std::size_t i = 0; i < a.num_parameters(); ++i)
    any_different |= a.parameters()[i] != b.parameters()[i];
  EXPECT_TRUE(any_different);
}

TEST(Made, RejectsDegenerateShapes) {
  EXPECT_THROW(Made(1, 4), Error);
  EXPECT_THROW(Made(4, 0), Error);
}

class MadeNormalizationSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MadeNormalizationSweep, SumsToOne) {
  const auto [n, h] = GetParam();
  Made made{std::size_t(n), std::size_t(h)};
  randomize_parameters(made, std::uint64_t(n * 31 + h));
  const Matrix batch = all_configurations(std::size_t(n));
  Vector lp(batch.rows());
  made.log_psi(batch, lp.span());
  Real total = 0;
  for (std::size_t k = 0; k < batch.rows(); ++k) total += std::exp(2 * lp[k]);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    ShapeSweep, MadeNormalizationSweep,
    ::testing::Combine(::testing::Values(2, 3, 5, 8),
                       ::testing::Values(1, 4, 10, 25)));

}  // namespace
}  // namespace vqmc
