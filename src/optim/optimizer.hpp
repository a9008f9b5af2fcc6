#pragma once

/// \file optimizer.hpp
/// \brief First-order optimizer interface.
///
/// Optimizers consume a gradient (possibly already preconditioned by
/// stochastic reconfiguration) and update the flat parameter vector in
/// place.  The paper's configurations: SGD (lr 0.1), Adam (lr 0.01,
/// default), and SGD+SR (lr 0.1 on the natural gradient).

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "tensor/real.hpp"

namespace vqmc {

/// In-place parameter update rule.
class Optimizer {
 public:
  virtual ~Optimizer() = default;

  /// Apply one update: params -= f(grad). Both spans have length d; the
  /// optimizer may keep per-parameter state (moments) sized on first use.
  virtual void step(std::span<Real> params, std::span<const Real> grad) = 0;

  /// Reset internal state (moment estimates, step counter).
  virtual void reset() = 0;

  /// Current base learning rate.
  [[nodiscard]] virtual Real learning_rate() const = 0;

  /// Change the base learning rate (used by LrSchedule-driven training).
  virtual void set_learning_rate(Real lr) = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Full mutable state as a flat vector (checkpoint/restart). Restoring the
  /// serialized state into a same-kind optimizer makes its subsequent steps
  /// bit-identical to the original's. The base default covers stateless
  /// rules: just the learning rate.
  [[nodiscard]] virtual std::vector<Real> serialize_state() const {
    return {learning_rate()};
  }

  /// Inverse of serialize_state(). Throws vqmc::Error on a state vector
  /// that cannot belong to this optimizer kind, and then changes nothing
  /// (VqmcTrainer::restore relies on it).
  virtual void restore_state(const std::vector<Real>& state) {
    VQMC_REQUIRE(state.size() == 1,
                 name() + ": optimizer state size mismatch");
    set_learning_rate(state[0]);
  }
};

/// Factory helpers matching the paper's three optimizer configurations.
std::unique_ptr<Optimizer> make_sgd(Real learning_rate = 0.1,
                                    Real momentum = 0.0);
std::unique_ptr<Optimizer> make_adam(Real learning_rate = 0.01,
                                     Real beta1 = 0.9, Real beta2 = 0.999,
                                     Real epsilon = 1e-8);

}  // namespace vqmc
