#include "nn/rbm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "nn/gradient_check.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "support/alloc_count.hpp"
#include "support/gradient_accumulation.hpp"
#include "tensor/kernels.hpp"

namespace vqmc {
namespace {

Matrix random_bits(std::size_t bs, std::size_t n, std::uint64_t seed) {
  rng::Xoshiro256 gen(seed);
  Matrix batch(bs, n);
  for (std::size_t i = 0; i < batch.size(); ++i)
    batch.data()[i] = rng::bernoulli(gen, 0.5) ? 1 : 0;
  return batch;
}

void randomize_parameters(WavefunctionModel& model, std::uint64_t seed,
                          Real scale = 0.7) {
  rng::Xoshiro256 gen(seed);
  for (Real& p : model.parameters()) p = rng::uniform(gen, -scale, scale);
}

TEST(Rbm, ParameterCount) {
  // [W (h x n) | c (h) | a (n) | a0] -> hn + h + n + 1.
  const Rbm rbm(6, 4);
  EXPECT_EQ(rbm.num_parameters(), 6u * 4u + 4u + 6u + 1u);
}

TEST(Rbm, LogPsiMatchesHandComputedFormula) {
  const std::size_t n = 3, h = 2;
  Rbm rbm(n, h);
  randomize_parameters(rbm, 41);
  const std::span<const Real> p = rbm.parameters();
  // Layout: W row-major (h x n), then c (h), then a (n), then a0.
  const Matrix batch = random_bits(4, n, 42);
  Vector lp(4);
  rbm.log_psi(batch, lp.span());
  for (std::size_t k = 0; k < 4; ++k) {
    Real expected = p[h * n + h + n];  // a0
    for (std::size_t l = 0; l < h; ++l) {
      Real theta = p[h * n + l];  // c_l
      for (std::size_t j = 0; j < n; ++j) theta += p[l * n + j] * batch(k, j);
      expected += std::log(std::cosh(theta));
    }
    for (std::size_t j = 0; j < n; ++j)
      expected += p[h * n + h + j] * batch(k, j);
    EXPECT_NEAR(lp[k], expected, 1e-12);
  }
}

TEST(Rbm, GradientMatchesFiniteDifferences) {
  Rbm rbm(5, 4);
  randomize_parameters(rbm, 43);
  const Matrix batch = random_bits(6, 5, 44);
  Vector coeff(6);
  rng::Xoshiro256 gen(45);
  for (std::size_t k = 0; k < 6; ++k) coeff[k] = rng::uniform(gen, -1.0, 1.0);
  const GradientCheckResult r =
      check_log_psi_gradient(rbm, batch, coeff.span());
  EXPECT_LT(r.max_abs_error, 1e-7) << "worst parameter " << r.worst_index;
}

TEST(Rbm, PerSampleGradientMatchesFiniteDifferences) {
  Rbm rbm(4, 3);
  randomize_parameters(rbm, 46);
  const Matrix batch = random_bits(5, 4, 47);
  const GradientCheckResult r = check_per_sample_gradient(rbm, batch);
  EXPECT_LT(r.max_abs_error, 1e-7);
}

TEST(Rbm, PerSampleGradientsSumToBatchGradient) {
  Rbm rbm(5, 6);
  randomize_parameters(rbm, 48);
  const std::size_t bs = 8;
  const Matrix batch = random_bits(bs, 5, 49);
  const std::size_t d = rbm.num_parameters();

  Matrix per_sample(bs, d);
  rbm.log_psi_gradient_per_sample(batch, per_sample);
  Vector coeff(bs);
  coeff.fill(1.0);
  Vector batch_grad(d);
  rbm.accumulate_log_psi_gradient(batch, coeff.span(), batch_grad.span());

  for (std::size_t i = 0; i < d; ++i) {
    Real acc = 0;
    for (std::size_t k = 0; k < bs; ++k) acc += per_sample(k, i);
    EXPECT_NEAR(acc, batch_grad[i], 1e-9);
  }
}

TEST(Rbm, CloneIsIndependentDeepCopy) {
  Rbm rbm(4, 4);
  randomize_parameters(rbm, 50);
  auto copy = rbm.clone();
  EXPECT_EQ(copy->name(), "RBM");
  copy->parameters()[0] += 1.0;
  EXPECT_NE(copy->parameters()[0], rbm.parameters()[0]);
}

TEST(Rbm, RepeatedLogPsiWsAllocatesNothing) {
  // W is read in place and theta lives in the workspace: after the first
  // call shapes it, an MCMC-style evaluation is heap-free.
  Rbm rbm(7, 5);
  randomize_parameters(rbm, 54);
  const Matrix batch = random_bits(2, 7, 55);
  const auto ws = rbm.make_workspace();
  Vector first(2), again(2);
  rbm.log_psi_ws(batch, first.span(), ws.get());
  const std::uint64_t before = vqmc::testing::allocation_count();
  rbm.log_psi_ws(batch, again.span(), ws.get());
  EXPECT_EQ(vqmc::testing::allocation_count(), before);
  EXPECT_EQ(first[0], again[0]);
  EXPECT_EQ(first[1], again[1]);
}

TEST(Rbm, GradientAccumulatesOntoANonzeroGradient) {
  // dW accumulates in place into grad's W block, like the bias gradients.
  constexpr Real kGradTol = 1e-10;
  Rbm rbm(7, 6);
  randomize_parameters(rbm, 151);
  const std::size_t bs = 10;
  const Matrix batch = random_bits(bs, 7, 152);
  Vector coeff(bs);
  rng::Xoshiro256 gen(153);
  for (std::size_t k = 0; k < bs; ++k) coeff[k] = rng::uniform(gen, -1.0, 1.0);
  const std::vector<bool> touched(rbm.num_parameters(), true);
  testing::expect_gradient_accumulates_onto(rbm, batch, coeff.span(), touched,
                                            154, kGradTol);
}

TEST(Rbm, WarmWorkspaceAllocatesNothingAfterAParameterWrite) {
  // The model keeps no derived copy of W; the flip path transposes it into
  // the workspace on each call.  Once a round of evaluations has shaped the
  // workspace, a parameter write and the same round allocate nothing.
  const std::size_t n = 48, h = 40, bs = 3;
  Rbm rbm(n, h);
  randomize_parameters(rbm, 155);
  const Matrix batch = random_bits(bs, n, 156);
  const std::size_t sites[] = {0, 5, 47};
  Matrix out(bs, 3);
  Vector log_psi(bs), coeff(bs), grad(rbm.num_parameters());
  coeff.fill(0.5);
  const auto ws = rbm.make_workspace();
  const auto round = [&] {
    rbm.log_psi_ws(batch, log_psi.span(), ws.get());
    rbm.accumulate_log_psi_gradient_ws(batch, coeff.span(), grad.span(),
                                       ws.get());
    ASSERT_TRUE(rbm.log_psi_flip_ratios(batch, sites, out, ws.get()));
  };
  round();
  const std::uint64_t before = vqmc::testing::allocation_count();
  rbm.parameters()[1] += 0.25;  // a W entry
  round();
  EXPECT_EQ(vqmc::testing::allocation_count(), before);
}

TEST(Rbm, HeldSpanWritesReachTheNextFlipRatios) {
  // Acquire parameters() once, evaluate the flip ratios, write a W entry
  // through the held span: the next ratios must be bitwise those of a fresh
  // model built from the new parameters.
  const std::size_t n = 6, h = 5, bs = 4;
  Rbm rbm(n, h);
  const std::span<Real> params = rbm.parameters();
  rng::Xoshiro256 gen(157);
  for (Real& p : params) p = rng::uniform(gen, -0.5, 0.5);
  const Matrix batch = random_bits(bs, n, 158);
  const std::size_t sites[] = {0, 2, 5};
  const auto ws = rbm.make_workspace();
  Matrix before(bs, 3), after(bs, 3), want(bs, 3);
  ASSERT_TRUE(rbm.log_psi_flip_ratios(batch, sites, before, ws.get()));
  params[2 * n + 2] += 1.5;  // W(2, 2): site 2's shift of hidden unit 2
  ASSERT_TRUE(rbm.log_psi_flip_ratios(batch, sites, after, ws.get()));

  Rbm fresh(n, h);
  const std::span<const Real> src = std::as_const(rbm).parameters();
  std::copy(src.begin(), src.end(), fresh.parameters().begin());
  const auto fresh_ws = fresh.make_workspace();
  ASSERT_TRUE(fresh.log_psi_flip_ratios(batch, sites, want, fresh_ws.get()));
  bool moved = false;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(after.data()[i], want.data()[i]) << "ratio " << i;
    moved |= after.data()[i] != before.data()[i];
  }
  EXPECT_TRUE(moved) << "the write must change the ratios";
}

TEST(Rbm, WriteThroughParametersReachesTheNextEvaluation) {
  Rbm rbm(4, 3);
  randomize_parameters(rbm, 56);
  const Matrix batch = random_bits(3, 4, 57);
  const auto ws = rbm.make_workspace();
  Vector before(3), after(3), fresh(3);
  rbm.log_psi_ws(batch, before.span(), ws.get());
  rbm.parameters()[1] += 0.5;  // a W entry
  rbm.log_psi_ws(batch, after.span(), ws.get());
  Rbm copy(4, 3);
  std::span<Real> dst = copy.parameters();
  const std::span<const Real> src = std::as_const(rbm).parameters();
  std::copy(src.begin(), src.end(), dst.begin());
  copy.log_psi(batch, fresh.span());
  for (std::size_t k = 0; k < 3; ++k) EXPECT_EQ(after[k], fresh[k]);
  bool changed = false;
  for (std::size_t k = 0; k < 3; ++k) changed |= after[k] != before[k];
  EXPECT_TRUE(changed);
}

TEST(Rbm, CloneEvaluatesIndependentlyOfTheOriginal) {
  Rbm rbm(5, 4);
  randomize_parameters(rbm, 58);
  const Matrix batch = random_bits(4, 5, 59);
  Vector original(4);
  rbm.log_psi(batch, original.span());
  const auto copy = rbm.clone();
  copy->parameters()[0] += 1.0;
  Vector cloned(4), again(4);
  copy->log_psi(batch, cloned.span());
  rbm.log_psi(batch, again.span());
  for (std::size_t k = 0; k < 4; ++k) EXPECT_EQ(again[k], original[k]);
  bool changed = false;
  for (std::size_t k = 0; k < 4; ++k) changed |= cloned[k] != original[k];
  EXPECT_TRUE(changed);
}

TEST(Rbm, LogPsiStableForLargeActivations) {
  // Huge weights would overflow cosh; log_cosh must keep things finite.
  Rbm rbm(4, 3);
  for (Real& p : rbm.parameters()) p = 500.0;
  const Matrix batch = random_bits(2, 4, 51);
  Vector lp(2);
  rbm.log_psi(batch, lp.span());
  for (std::size_t k = 0; k < 2; ++k) EXPECT_TRUE(std::isfinite(lp[k]));
}

TEST(Rbm, GradientOfConstantCoefficientMatchesScaledSum) {
  // Linearity check: gradient with coeff = 2*ones equals twice coeff = ones.
  Rbm rbm(4, 3);
  randomize_parameters(rbm, 52);
  const Matrix batch = random_bits(5, 4, 53);
  Vector ones(5), twos(5);
  ones.fill(1.0);
  twos.fill(2.0);
  Vector g1(rbm.num_parameters()), g2(rbm.num_parameters());
  rbm.accumulate_log_psi_gradient(batch, ones.span(), g1.span());
  rbm.accumulate_log_psi_gradient(batch, twos.span(), g2.span());
  for (std::size_t i = 0; i < g1.size(); ++i)
    EXPECT_NEAR(g2[i], 2 * g1[i], 1e-10);
}

}  // namespace
}  // namespace vqmc
