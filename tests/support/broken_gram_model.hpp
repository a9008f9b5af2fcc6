#pragma once

/// \file broken_gram_model.hpp
/// \brief A ForwardingModel whose per-sample log-derivative Gram is broken
/// on purpose, so an SR step reaches the trainer's guard with an SrReport
/// breakdown: either a Gram holding a NaN, or a finite one that is not
/// positive semidefinite (-1e6 I), which the Cholesky rejects.

#include <limits>

#include "support/forwarding_model.hpp"

namespace vqmc::testing {

class BrokenGramModel final : public ForwardingModel {
 public:
  enum class Fault { kNaN, kIndefinite };

  BrokenGramModel(WavefunctionModel& inner, Fault fault)
      : ForwardingModel(inner), fault_(fault) {}

  void log_psi_gradient_gram(const Matrix& batch, Matrix& gram,
                             Workspace* ws) const override {
    if (fault_ == Fault::kNaN) {
      ForwardingModel::log_psi_gradient_gram(batch, gram, ws);
      gram(1, 0) = gram(0, 1) = std::numeric_limits<Real>::quiet_NaN();
      return;
    }
    gram.fill(0);
    for (std::size_t k = 0; k < gram.rows(); ++k) gram(k, k) = -1e6;
  }

 private:
  Fault fault_;
};

}  // namespace vqmc::testing
