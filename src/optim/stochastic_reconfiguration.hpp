#pragma once

/// \file stochastic_reconfiguration.hpp
/// \brief Stochastic reconfiguration (SR) — stochastic natural gradient
/// descent (Sorella 1998; Amari 1998), Eq. 5 of the paper, solved in
/// sample space (DESIGN.md §5m).
///
/// Given per-sample log-derivatives O(k, :) = d log psi(x_k)/d theta, SR
/// preconditions the energy gradient g by the regularized quantum geometric
/// tensor
///
///   S = cov(O) = (1/bs) O_c^T O_c,   O_c = C O,   C = I - 1 1^T / bs,
///   delta = (S + lambda I)^{-1} g,
///
/// and the base optimizer then steps along delta instead of g.  Note the
/// Fisher matrix of pi = psi^2 is 4 S; the factor is absorbed into the
/// learning rate, matching standard VMC practice and the paper's settings
/// (lambda = 1e-3, lr = 0.1).
///
/// The trainer's gradient is g = O^T c with coefficients
/// c_k = 2 (E_k - E_mean) / bs, which sum to zero, so g = O_c^T c and the
/// push-through identity gives
///
///   delta = O_c^T (K_c / bs + lambda I)^{-1} c,   K_c = C (O O^T) C:
///
/// one bs x bs Cholesky solve for sample coefficients y, then delta = O^T y
/// (y sums to zero, so O_c^T y = O^T y), one more pass of the model's
/// accumulate_log_psi_gradient.  The model supplies O O^T
/// (WavefunctionModel::log_psi_gradient_gram), MADE and RBM without ever
/// forming O.  The solve is exact and costs the same every step: bs^3 / 3
/// for the factorization, whatever the parameter count d.

#include <span>
#include <string>

#include "tensor/matrix.hpp"
#include "tensor/vector.hpp"

namespace vqmc {

struct SrConfig {
  Real regularization = 1e-3;  ///< lambda (the paper's value)
};

/// Outcome of one SR solve. On `breakdown`, the sample coefficients are not
/// usable (they are zeroed) and `reason` says why — the trainer's health
/// guard decides whether to throw, skip or roll back instead of stepping
/// along a NaN direction.
struct SrReport {
  bool breakdown = false;  ///< hard numerical failure; do not use y
  std::string reason;      ///< empty unless breakdown
};

/// Natural-gradient preconditioner.
class StochasticReconfiguration {
 public:
  explicit StochasticReconfiguration(SrConfig config = {});

  /// Solve (K_c / bs + lambda I) y = coeff for the sample coefficients y,
  /// which then give the natural gradient delta = O^T y.  `gram` holds the
  /// uncentred Gram K = O O^T (bs x bs, symmetric) on entry and is
  /// overwritten: its lower triangle ends as the Cholesky factor, so a
  /// caller-owned buffer makes the solve allocation-free.  `coeff` (length
  /// bs) must sum to zero, as the energy gradient's coefficients do; y gets
  /// its mean removed, which only clears rounding.  A non-finite Gram or
  /// coefficient, a failed factorization or a non-finite y is a breakdown.
  SrReport solve(Matrix& gram, std::span<const Real> coeff,
                 std::span<Real> y) const;

  [[nodiscard]] const SrConfig& config() const { return config_; }

 private:
  SrConfig config_;
};

}  // namespace vqmc
