#include "nn/deep_made.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "hamiltonian/hamiltonian.hpp"
#include "nn/gradient_check.hpp"
#include "nn/made.hpp"
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

void randomize_parameters(WavefunctionModel& model, std::uint64_t seed) {
  rng::Xoshiro256 gen(seed);
  for (Real& p : model.parameters()) p = rng::uniform(gen, -0.7, 0.7);
}

TEST(DeepMade, ParameterCountFormula) {
  const std::size_t n = 6, h = 9, depth = 3;
  const DeepMade model(n, h, depth);
  EXPECT_EQ(model.num_parameters(),
            h * n + h + (depth - 1) * (h * h + h) + n * h + n);
}

TEST(DeepMade, DepthOneMatchesMadeParameterCount) {
  const DeepMade deep(7, 11, 1);
  const Made shallow(7, 11);
  EXPECT_EQ(deep.num_parameters(), shallow.num_parameters());
}

class DeepMadeDepthSweep : public ::testing::TestWithParam<int> {};

TEST_P(DeepMadeDepthSweep, DistributionIsNormalized) {
  const std::size_t depth = std::size_t(GetParam());
  DeepMade model(5, 8, depth);
  randomize_parameters(model, 17 * depth);
  const Matrix batch = all_configurations(5);
  Vector lp(batch.rows());
  model.log_psi(batch, lp.span());
  Real total = 0;
  for (std::size_t k = 0; k < batch.rows(); ++k) total += std::exp(2 * lp[k]);
  EXPECT_NEAR(total, 1.0, 1e-10) << "depth " << depth;
}

TEST_P(DeepMadeDepthSweep, ConditionalsRespectAutoregressiveProperty) {
  const std::size_t depth = std::size_t(GetParam());
  const std::size_t n = 6;
  DeepMade model(n, 10, depth);
  randomize_parameters(model, 23 * depth);
  Matrix base = random_bits(1, n, depth);
  Matrix cond_base;
  model.conditionals(base, cond_base);
  for (std::size_t j = 0; j < n; ++j) {
    Matrix perturbed = base;
    perturbed(0, j) = 1 - perturbed(0, j);
    Matrix cond;
    model.conditionals(perturbed, cond);
    for (std::size_t i = 0; i <= j; ++i)
      EXPECT_EQ(cond(0, i), cond_base(0, i))
          << "depth " << depth << ": output " << i << " depends on input "
          << j;
  }
}

TEST_P(DeepMadeDepthSweep, GradientMatchesFiniteDifferences) {
  const std::size_t depth = std::size_t(GetParam());
  DeepMade model(4, 6, depth);
  randomize_parameters(model, 31 * depth);
  const Matrix batch = random_bits(5, 4, depth + 1);
  Vector coeff(5);
  rng::Xoshiro256 gen(41);
  for (std::size_t k = 0; k < 5; ++k) coeff[k] = rng::uniform(gen, -1.0, 1.0);
  const GradientCheckResult r =
      check_log_psi_gradient(model, batch, coeff.span());
  EXPECT_LT(r.max_abs_error, 1e-6)
      << "depth " << depth << ", worst parameter " << r.worst_index;
}

INSTANTIATE_TEST_SUITE_P(Depths, DeepMadeDepthSweep, ::testing::Values(1, 2, 3));

TEST(DeepMade, PerSampleGradientsSumToBatchGradient) {
  DeepMade model(5, 7, 2);
  randomize_parameters(model, 47);
  const std::size_t bs = 6;
  const Matrix batch = random_bits(bs, 5, 48);
  const std::size_t d = model.num_parameters();
  Matrix per_sample(bs, d);
  model.log_psi_gradient_per_sample(batch, per_sample);
  Vector coeff(bs);
  coeff.fill(1.0);
  Vector batch_grad(d);
  model.accumulate_log_psi_gradient(batch, coeff.span(), batch_grad.span());
  for (std::size_t i = 0; i < d; ++i) {
    Real acc = 0;
    for (std::size_t k = 0; k < bs; ++k) acc += per_sample(k, i);
    EXPECT_NEAR(acc, batch_grad[i], 1e-9);
  }
}

TEST(DeepMade, GradientAccumulatesOntoANonzeroGradient) {
  // Every layer's weights accumulate in place into their block of grad,
  // inside that layer's mask only.
  constexpr Real kGradTol = 1e-10;
  const std::size_t n = 7, h = 10;
  DeepMade model(n, h, 2);
  randomize_parameters(model, 141);
  const std::size_t bs = 9;
  const Matrix batch = random_bits(bs, n, 142);
  Vector coeff(bs);
  rng::Xoshiro256 gen(143);
  for (std::size_t k = 0; k < bs; ++k) coeff[k] = rng::uniform(gen, -1.0, 1.0);
  // Layout [W_1 | b_1 | W_2 | b_2 | W_out | b_out].
  std::vector<bool> touched;
  const auto add_mask = [&](const Matrix& mask) {
    for (std::size_t i = 0; i < mask.size(); ++i)
      touched.push_back(mask.data()[i] != 0);
  };
  add_mask(testing::made_input_mask(n, h));
  touched.insert(touched.end(), h, true);
  add_mask(testing::made_hidden_mask(n, h));
  touched.insert(touched.end(), h, true);
  add_mask(testing::made_output_mask(n, h));
  touched.insert(touched.end(), n, true);
  testing::expect_gradient_accumulates_onto(model, batch, coeff.span(),
                                            touched, 144, kGradTol);
}

TEST(DeepMade, ConstructorAllocatesOnlyTheParametersAndAnOrderNPlusHPlan) {
  // Every mask is built from the degree counts as prefix lengths: beyond
  // the parameter vector the constructor allocates O(n + h), no dense
  // h x n or h x h mask.
  const std::pair<std::size_t, std::size_t> shapes[] = {{1000, 239},
                                                        {64, 86}};
  for (const auto& [n, h] : shapes) {
    SCOPED_TRACE("n " + std::to_string(n) + " h " + std::to_string(h));
    const std::uint64_t before = vqmc::testing::allocated_bytes();
    const DeepMade model(n, h, 2);
    const std::uint64_t bytes = vqmc::testing::allocated_bytes() - before;
    const std::uint64_t params = model.num_parameters() * sizeof(Real);
    EXPECT_LE(bytes, params + 12 * sizeof(std::size_t) * (n + h) + 1024);
  }
}

TEST(DeepMade, CloneIsDeepCopy) {
  DeepMade model(4, 5, 2);
  randomize_parameters(model, 51);
  auto copy = model.clone();
  EXPECT_EQ(copy->name(), "DeepMADE");
  copy->parameters()[0] += 1;
  EXPECT_NE(copy->parameters()[0], model.parameters()[0]);
}

TEST(DeepMade, HeldSpanWritesReachTheNextLogPsi) {
  // Acquire parameters() once, evaluate, write one in-mask entry of the
  // input layer, of a hidden-to-hidden layer and of the output layer
  // through the held span: the next log_psi must be bitwise that of a
  // fresh model built from the new parameters.
  const std::size_t n = 6, h = 8, depth = 2, bs = 10;
  DeepMade model(n, h, depth);
  const std::span<Real> params = model.parameters();
  rng::Xoshiro256 gen(161);
  for (Real& p : params) p = rng::uniform(gen, -0.8, 0.8);
  const Matrix batch = random_bits(bs, n, 162);
  DeepMade::Workspace ws;
  Vector before(bs), after(bs), want(bs);
  model.log_psi_ws(batch, before.span(), &ws);

  // Layout [W_1 | b_1 | W_2 | b_2 | W_out | b_out]; the last unit of each
  // hidden layer has the top degree, and the last output reads every unit.
  const std::size_t w2 = h * n + h, w_out = w2 + h * h + h;
  params[(h - 1) * n] += 1.5;          // W_1(h - 1, 0)
  params[w2 + (h - 1) * h] -= 1.0;     // W_2(h - 1, 0)
  params[w_out + (n - 1) * h] += 2.0;  // W_out(n - 1, 0)
  model.log_psi_ws(batch, after.span(), &ws);

  DeepMade fresh(n, h, depth);
  const std::span<const Real> src = std::as_const(model).parameters();
  std::copy(src.begin(), src.end(), fresh.parameters().begin());
  fresh.log_psi(batch, want.span());
  bool moved = false;
  for (std::size_t k = 0; k < bs; ++k) {
    EXPECT_EQ(after[k], want[k]) << "row " << k;
    moved |= after[k] != before[k];
  }
  EXPECT_TRUE(moved) << "the writes must change log psi";
}

TEST(DeepMade, RejectsDegenerateShapes) {
  EXPECT_THROW(DeepMade(1, 4, 1), Error);
  EXPECT_THROW(DeepMade(4, 0, 1), Error);
  EXPECT_THROW(DeepMade(4, 4, 0), Error);
}

}  // namespace
}  // namespace vqmc
