#include "core/estimators.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "nn/made.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "tensor/kernels.hpp"

namespace vqmc {
namespace {

/// The trainer's energy gradient: the Eq. 5 coefficients of `local`,
/// centred on its own mean, through the model's gradient accumulation.
void add_energy_gradient(const WavefunctionModel& model, const Matrix& batch,
                         const Vector& local, Vector& grad) {
  Vector coeff(local.size());
  energy_gradient_coefficients(local.span(), mean(local.span()),
                               Real(batch.rows()), coeff.span());
  model.accumulate_log_psi_gradient(batch, coeff.span(), grad.span());
}

TEST(Estimators, EnergyStatisticsOfKnownBatch) {
  Vector l{1.0, 2.0, 3.0, 4.0};
  const EnergyEstimate est = estimate_energy(l.span());
  EXPECT_DOUBLE_EQ(est.mean, 2.5);
  EXPECT_DOUBLE_EQ(est.variance, 1.25);
  EXPECT_DOUBLE_EQ(est.std_dev, std::sqrt(1.25));
  EXPECT_DOUBLE_EQ(est.std_error, std::sqrt(1.25) / 2.0);
  EXPECT_DOUBLE_EQ(est.min, 1.0);
}

TEST(Estimators, EmptyBatchRejected) {
  Vector empty;
  EXPECT_THROW(estimate_energy(empty.span()), Error);
}

TEST(Estimators, ConstantBatchHasZeroVariance) {
  Vector l(16);
  l.fill(-3.25);
  const EnergyEstimate est = estimate_energy(l.span());
  EXPECT_DOUBLE_EQ(est.mean, -3.25);
  EXPECT_DOUBLE_EQ(est.variance, 0.0);
}

TEST(Estimators, GradientIsZeroWhenLocalEnergiesAreConstant) {
  // Eq. 5: the coefficient (l - L) vanishes identically -> zero gradient.
  // This is the zero-variance principle that makes VQMC gradients quiet
  // near an eigenstate.
  Made made(4, 5);
  rng::Xoshiro256 gen(1);
  for (Real& p : made.parameters()) p = rng::uniform(gen, -0.5, 0.5);
  Matrix batch(6, 4);
  for (std::size_t i = 0; i < batch.size(); ++i)
    batch.data()[i] = rng::bernoulli(gen, 0.5) ? 1 : 0;
  Vector local(6);
  local.fill(7.0);
  Vector grad(made.num_parameters());
  add_energy_gradient(made, batch, local, grad);
  for (std::size_t i = 0; i < grad.size(); ++i) EXPECT_EQ(grad[i], 0.0);
}

TEST(Estimators, GradientMatchesManualEquationFive) {
  Made made(4, 3);
  rng::Xoshiro256 gen(2);
  for (Real& p : made.parameters()) p = rng::uniform(gen, -0.5, 0.5);
  const std::size_t bs = 5;
  Matrix batch(bs, 4);
  for (std::size_t i = 0; i < batch.size(); ++i)
    batch.data()[i] = rng::bernoulli(gen, 0.5) ? 1 : 0;
  Vector local(bs);
  for (std::size_t k = 0; k < bs; ++k) local[k] = rng::uniform(gen, -2.0, 2.0);

  Vector grad(made.num_parameters());
  add_energy_gradient(made, batch, local, grad);

  // Manual: grad = (2/bs) sum_k (l_k - mean) O_k via per-sample gradients.
  Matrix per_sample(bs, made.num_parameters());
  made.log_psi_gradient_per_sample(batch, per_sample);
  const Real l_bar = mean(local.span());
  for (std::size_t i = 0; i < grad.size(); ++i) {
    Real expected = 0;
    for (std::size_t k = 0; k < bs; ++k)
      expected += 2 * (local[k] - l_bar) / Real(bs) * per_sample(k, i);
    EXPECT_NEAR(grad[i], expected, 1e-10);
  }
}

TEST(Estimators, GradientAccumulates) {
  Made made(3, 2);
  Matrix batch(2, 3);
  batch(0, 0) = 1;
  Vector local{1.0, 2.0};
  Vector grad(made.num_parameters());
  add_energy_gradient(made, batch, local, grad);
  Vector once = grad;
  add_energy_gradient(made, batch, local, grad);
  for (std::size_t i = 0; i < grad.size(); ++i)
    EXPECT_NEAR(grad[i], 2 * once[i], 1e-12);
}

}  // namespace
}  // namespace vqmc
