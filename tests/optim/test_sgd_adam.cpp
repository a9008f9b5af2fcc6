#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "optim/adam.hpp"
#include "optim/sgd.hpp"
#include "tensor/vector.hpp"

namespace vqmc {
namespace {

/// Minimize f(x) = 0.5 * ||x - target||^2 with gradient x - target.
template <typename Opt>
Real optimize_quadratic(Opt& opt, int steps, Real start = 5.0,
                        Real target = 1.0) {
  Vector x{start, -start};
  Vector grad(2);
  for (int i = 0; i < steps; ++i) {
    grad[0] = x[0] - target;
    grad[1] = x[1] - target;
    opt.step(x.span(), grad.span());
  }
  return std::max(std::fabs(x[0] - target), std::fabs(x[1] - target));
}

TEST(Sgd, SingleStepIsExactlyLrTimesGrad) {
  Sgd sgd(0.1);
  Vector x{1.0};
  Vector g{2.0};
  sgd.step(x.span(), g.span());
  EXPECT_DOUBLE_EQ(x[0], 0.8);
}

TEST(Sgd, ConvergesOnQuadratic) {
  Sgd sgd(0.1);
  EXPECT_LT(optimize_quadratic(sgd, 200), 1e-6);
}

TEST(Sgd, MomentumAcceleratesButStillConverges) {
  Sgd plain(0.05), momentum(0.05, 0.9);
  const Real err_plain = optimize_quadratic(plain, 50);
  const Real err_momentum = optimize_quadratic(momentum, 50);
  EXPECT_LT(err_momentum, err_plain);
  EXPECT_LT(optimize_quadratic(momentum, 300), 1e-6);
}

TEST(Sgd, InvalidHyperparametersRejected) {
  EXPECT_THROW(Sgd(0.0), Error);
  EXPECT_THROW(Sgd(0.1, 1.0), Error);
  EXPECT_THROW(Sgd(0.1, -0.1), Error);
}

TEST(Sgd, SizeMismatchRejected) {
  Sgd sgd(0.1);
  Vector x(2), g(3);
  EXPECT_THROW(sgd.step(x.span(), g.span()), Error);
}

TEST(Sgd, ResetClearsMomentum) {
  Sgd sgd(0.1, 0.9);
  Vector x{1.0}, g{1.0};
  sgd.step(x.span(), g.span());
  sgd.reset();
  Vector y{1.0};
  sgd.step(y.span(), g.span());
  // After reset, the first step must look like a fresh optimizer's.
  EXPECT_DOUBLE_EQ(y[0], 0.9);
}

TEST(Adam, FirstStepHasMagnitudeLr) {
  // With bias correction, the very first Adam step is lr * sign(grad).
  Adam adam(0.01);
  Vector x{0.0}, g{123.0};
  adam.step(x.span(), g.span());
  EXPECT_NEAR(x[0], -0.01, 1e-6);
}

TEST(Adam, ConvergesOnQuadratic) {
  Adam adam(0.05);
  EXPECT_LT(optimize_quadratic(adam, 1000), 1e-4);
}

TEST(Adam, StepsAreInvariantToGradientScale) {
  // Adam normalizes by the second moment, so scaling the gradient leaves
  // the first step unchanged.
  Adam a(0.01), b(0.01);
  Vector xa{0.0}, xb{0.0}, ga{1.0}, gb{1000.0};
  a.step(xa.span(), ga.span());
  b.step(xb.span(), gb.span());
  EXPECT_NEAR(xa[0], xb[0], 1e-6);
}

TEST(Adam, InvalidHyperparametersRejected) {
  EXPECT_THROW(Adam(-0.01), Error);
  EXPECT_THROW(Adam(0.01, 1.0), Error);
  EXPECT_THROW(Adam(0.01, 0.9, 1.0), Error);
  EXPECT_THROW(Adam(0.01, 0.9, 0.999, 0.0), Error);
}

TEST(Adam, ResetRestartsBiasCorrection) {
  Adam adam(0.01);
  Vector x{0.0}, g{1.0};
  adam.step(x.span(), g.span());
  adam.step(x.span(), g.span());
  adam.reset();
  Vector y{0.0};
  adam.step(y.span(), g.span());
  EXPECT_NEAR(y[0], -0.01, 1e-6);
}

TEST(Factories, ProduceTheDocumentedDefaults) {
  const auto sgd = make_sgd();
  const auto adam = make_adam();
  EXPECT_EQ(sgd->name(), "SGD");
  EXPECT_EQ(adam->name(), "ADAM");
}

// State serialization (checkpoint/restart): a restored optimizer must
// continue bit-identically to the original.
template <typename Opt>
void expect_state_roundtrip_resumes_bitwise(Opt make) {
  Opt a = make;
  Opt b = make;
  Vector pa{1.0, -2.0, 0.5};
  Vector pb{1.0, -2.0, 0.5};
  Vector g1{0.3, -0.1, 0.7};
  Vector g2{-0.2, 0.4, 0.1};

  a.step(pa.span(), g1.span());
  b.step(pb.span(), g1.span());

  // Serialize a's mid-run state into a *fresh* instance and continue both.
  Opt restored = make;
  restored.restore_state(a.serialize_state());
  restored.step(pa.span(), g2.span());
  b.step(pb.span(), g2.span());
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(pa[i], pb[i]) << i;
}

TEST(OptimizerState, SgdRoundTripResumesBitwise) {
  expect_state_roundtrip_resumes_bitwise(Sgd(0.1, 0.5));
}

TEST(OptimizerState, AdamRoundTripResumesBitwise) {
  expect_state_roundtrip_resumes_bitwise(Adam(0.01));
}

TEST(OptimizerState, AdamSerializesMomentsAndStepCount) {
  Adam adam(0.01);
  Vector p{1.0, 2.0};
  Vector g{0.5, -0.5};
  adam.step(p.span(), g.span());
  const std::vector<Real> state = adam.serialize_state();
  // Layout: [lr, step_count, m..., v...].
  ASSERT_EQ(state.size(), 2u + 4u);
  EXPECT_EQ(state[0], Real(0.01));
  EXPECT_EQ(state[1], Real(1));
  EXPECT_THROW(adam.restore_state({0.01}), Error);  // malformed payload
}

TEST(OptimizerState, SgdRejectsEmptyState) {
  Sgd sgd(0.1);
  EXPECT_THROW(sgd.restore_state({}), Error);
}

/// `opt` after one step, whose state is then restored with entry `field`
/// replaced by `value`.  Returns whether the restore threw a vqmc::Error,
/// and checks that a rejected restore left the state as it was.
template <typename Opt>
bool restore_rejects(Opt opt, std::size_t field, Real value) {
  Vector p{1.0, 2.0};
  Vector g{0.5, -0.5};
  opt.step(p.span(), g.span());
  const std::vector<Real> before = opt.serialize_state();
  std::vector<Real> state = before;
  state[field] = value;
  try {
    opt.restore_state(state);
  } catch (const Error&) {
    EXPECT_EQ(opt.serialize_state(), before) << "restore mutated the state";
    return true;
  }
  return false;
}

TEST(OptimizerState, AdamRejectsAStepCountThatIsNotACount) {
  // The step count is a double read from a checkpoint.  Casting NaN, inf
  // or a value beyond long's range is undefined; -1 makes the first step's
  // bias correction divide by zero; 2^60 is past the integers a double
  // holds exactly.
  const Real inf = std::numeric_limits<Real>::infinity();
  for (const Real steps : {std::numeric_limits<Real>::quiet_NaN(), inf,
                           Real(-1), Real(2.5), std::ldexp(Real(1), 60)})
    EXPECT_TRUE(restore_rejects(Adam(0.01), 1, steps)) << steps;
  for (const Real steps : {Real(0), std::ldexp(Real(1), 53)})
    EXPECT_FALSE(restore_rejects(Adam(0.01), 1, steps)) << steps;
}

TEST(OptimizerState, RestoreRejectsANegativeOrNonFiniteLearningRate) {
  for (const Real lr : {std::numeric_limits<Real>::quiet_NaN(), Real(-0.1)}) {
    EXPECT_TRUE(restore_rejects(Adam(0.01), 0, lr)) << lr;
    EXPECT_TRUE(restore_rejects(Sgd(0.1, 0.5), 0, lr)) << lr;
  }
  // Zero stays legal: a cosine schedule's floor defaults to 0.
  EXPECT_FALSE(restore_rejects(Adam(0.01), 0, 0));
  EXPECT_FALSE(restore_rejects(Sgd(0.1, 0.5), 0, 0));
}

}  // namespace
}  // namespace vqmc
