#include "optim/adam.hpp"

#include <cmath>
#include <cstdint>

#include "common/error.hpp"

namespace vqmc {

Adam::Adam(Real learning_rate, Real beta1, Real beta2, Real epsilon)
    : lr_(learning_rate), beta1_(beta1), beta2_(beta2), eps_(epsilon) {
  VQMC_REQUIRE(learning_rate > 0, "Adam: learning rate must be positive");
  VQMC_REQUIRE(beta1 >= 0 && beta1 < 1, "Adam: beta1 must be in [0,1)");
  VQMC_REQUIRE(beta2 >= 0 && beta2 < 1, "Adam: beta2 must be in [0,1)");
  VQMC_REQUIRE(epsilon > 0, "Adam: epsilon must be positive");
}

void Adam::step(std::span<Real> params, std::span<const Real> grad) {
  VQMC_REQUIRE(params.size() == grad.size(), "Adam: size mismatch");
  if (m_.size() != params.size()) {
    m_ = Vector(params.size());
    v_ = Vector(params.size());
    step_count_ = 0;
  }
  ++step_count_;
  const Real bc1 = 1 - std::pow(beta1_, Real(step_count_));
  const Real bc2 = 1 - std::pow(beta2_, Real(step_count_));
  for (std::size_t i = 0; i < params.size(); ++i) {
    m_[i] = beta1_ * m_[i] + (1 - beta1_) * grad[i];
    v_[i] = beta2_ * v_[i] + (1 - beta2_) * grad[i] * grad[i];
    const Real m_hat = m_[i] / bc1;
    const Real v_hat = v_[i] / bc2;
    params[i] -= lr_ * m_hat / (std::sqrt(v_hat) + eps_);
  }
}

void Adam::reset() {
  m_ = Vector();
  v_ = Vector();
  step_count_ = 0;
}

std::vector<Real> Adam::serialize_state() const {
  std::vector<Real> state;
  state.reserve(2 + 2 * m_.size());
  state.push_back(lr_);
  state.push_back(Real(step_count_));
  state.insert(state.end(), m_.span().begin(), m_.span().end());
  state.insert(state.end(), v_.span().begin(), v_.span().end());
  return state;
}

void Adam::restore_state(const std::vector<Real>& state) {
  VQMC_REQUIRE(state.size() >= 2 && (state.size() - 2) % 2 == 0,
               "Adam: optimizer state size mismatch");
  // Both scalars come from a file.  Casting NaN, inf or an out-of-range
  // double to long is undefined, and a negative or fractional count or a
  // negative rate would corrupt every later step, so they are checked
  // before anything is restored.
  VQMC_REQUIRE(std::isfinite(state[0]) && state[0] >= 0,
               "Adam: restored learning rate must be finite and >= 0");
  const Real steps = state[1];
  VQMC_REQUIRE(steps >= 0 && steps <= Real(std::uint64_t(1) << 53) &&
                   steps == std::floor(steps),
               "Adam: restored step count must be an integer in [0, 2^53]");
  lr_ = state[0];
  step_count_ = long(steps);
  const std::size_t d = (state.size() - 2) / 2;
  m_ = Vector(d);
  v_ = Vector(d);
  for (std::size_t i = 0; i < d; ++i) {
    m_[i] = state[2 + i];
    v_[i] = state[2 + d + i];
  }
}

std::unique_ptr<Optimizer> make_adam(Real learning_rate, Real beta1, Real beta2,
                                     Real epsilon) {
  return std::make_unique<Adam>(learning_rate, beta1, beta2, epsilon);
}

}  // namespace vqmc
