#pragma once

/// \file estimators.hpp
/// \brief Monte Carlo estimators for the VQMC objective (Eq. 3-5).

#include <span>

#include "nn/wavefunction.hpp"
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

/// Energy gradient (Eq. 5): grad = 2 E[(l - L) d log psi] estimated as
/// grad += (2/bs) sum_k (l_k - mean(l)) d log psi(x_k)/d theta.
/// `grad` must be zeroed by the caller if a fresh gradient is wanted.
/// `ws` (optional, from model.make_workspace()) reuses the model's
/// evaluation scratch across calls.
void accumulate_energy_gradient(const WavefunctionModel& model,
                                const Matrix& batch,
                                std::span<const Real> local_energies,
                                std::span<Real> grad,
                                WavefunctionModel::Workspace* ws = nullptr);

/// The energy gradient's per-sample coefficients,
/// coeff[k] = 2 (l_k - batch_mean) / batch_count: the gradient is
/// sum_k coeff[k] d log psi(x_k)/d theta, and SR solves against them.
void energy_gradient_coefficients(std::span<const Real> local_energies,
                                  Real batch_mean, Real batch_count,
                                  std::span<Real> coeff);

/// One rank's share of a data-parallel energy gradient: the same sum over
/// this batch, centred on `batch_mean` and divided by `batch_count`, the
/// mean and sample count of the whole (allreduced) batch. Summing every rank's share
/// gives the gradient over the whole batch; with this batch's own mean and
/// size it is the overload above, bit for bit.
void accumulate_energy_gradient(const WavefunctionModel& model,
                                const Matrix& batch,
                                std::span<const Real> local_energies,
                                Real batch_mean, Real batch_count,
                                std::span<Real> grad,
                                WavefunctionModel::Workspace* ws = nullptr);

}  // namespace vqmc
