#pragma once

/// \file estimators.hpp
/// \brief Monte Carlo estimators for the VQMC objective (Eq. 3-5).

#include <span>

#include "tensor/real.hpp"

namespace vqmc {

/// Sample statistics of the stochastic objective.
struct EnergyEstimate {
  Real mean = 0;       ///< estimate of L(theta)
  Real variance = 0;   ///< var of l_theta under pi_theta (Eq. 4); -> 0 at an
                       ///< exact eigenstate
  Real std_dev = 0;    ///< sqrt(variance)
  Real std_error = 0;  ///< std_dev / sqrt(batch) (i.i.d. assumption)
  Real min = 0;        ///< best (lowest) local energy in the batch
};

/// Mean/variance/extreme of a batch of local energies.
EnergyEstimate estimate_energy(std::span<const Real> local_energies);

/// The energy gradient's per-sample coefficients (Eq. 5),
/// coeff[k] = 2 (l_k - batch_mean) / batch_count: the gradient
/// 2 E[(l - L) d log psi] is sum_k coeff[k] d log psi(x_k)/d theta, which
/// the model's accumulate_log_psi_gradient forms, and SR solves against
/// them.  On N ranks `batch_mean` and `batch_count` are the mean and
/// sample count of the whole (allreduced) batch, so summing every rank's
/// share gives the gradient over the whole batch.
void energy_gradient_coefficients(std::span<const Real> local_energies,
                                  Real batch_mean, Real batch_count,
                                  std::span<Real> coeff);

}  // namespace vqmc
