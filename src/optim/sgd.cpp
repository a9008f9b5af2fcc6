#include "optim/sgd.hpp"

#include <cmath>

#include "common/error.hpp"

namespace vqmc {

Sgd::Sgd(Real learning_rate, Real momentum)
    : lr_(learning_rate), momentum_(momentum) {
  VQMC_REQUIRE(learning_rate > 0, "SGD: learning rate must be positive");
  VQMC_REQUIRE(momentum >= 0 && momentum < 1, "SGD: momentum must be in [0,1)");
}

void Sgd::step(std::span<Real> params, std::span<const Real> grad) {
  VQMC_REQUIRE(params.size() == grad.size(), "SGD: size mismatch");
  if (momentum_ == Real(0)) {
    for (std::size_t i = 0; i < params.size(); ++i)
      params[i] -= lr_ * grad[i];
    return;
  }
  if (velocity_.size() != params.size()) velocity_ = Vector(params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    velocity_[i] = momentum_ * velocity_[i] + grad[i];
    params[i] -= lr_ * velocity_[i];
  }
}

void Sgd::reset() { velocity_ = Vector(); }

std::vector<Real> Sgd::serialize_state() const {
  std::vector<Real> state;
  state.reserve(1 + velocity_.size());
  state.push_back(lr_);
  state.insert(state.end(), velocity_.span().begin(), velocity_.span().end());
  return state;
}

void Sgd::restore_state(const std::vector<Real>& state) {
  VQMC_REQUIRE(!state.empty(), "SGD: optimizer state size mismatch");
  VQMC_REQUIRE(std::isfinite(state[0]) && state[0] >= 0,
               "SGD: restored learning rate must be finite and >= 0");
  lr_ = state[0];
  velocity_ = state.size() > 1 ? Vector(state.size() - 1) : Vector();
  for (std::size_t i = 0; i < velocity_.size(); ++i)
    velocity_[i] = state[1 + i];
}

std::unique_ptr<Optimizer> make_sgd(Real learning_rate, Real momentum) {
  return std::make_unique<Sgd>(learning_rate, momentum);
}

}  // namespace vqmc
