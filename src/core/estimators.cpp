#include "core/estimators.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "tensor/kernels.hpp"
#include "tensor/vector.hpp"

namespace vqmc {

EnergyEstimate estimate_energy(std::span<const Real> local_energies) {
  VQMC_REQUIRE(!local_energies.empty(), "estimate_energy: empty batch");
  EnergyEstimate est;
  est.mean = mean(local_energies);
  est.variance = variance(local_energies);
  est.std_dev = std::sqrt(est.variance);
  est.std_error = est.std_dev / std::sqrt(Real(local_energies.size()));
  est.min = *std::min_element(local_energies.begin(), local_energies.end());
  return est;
}

void accumulate_energy_gradient(const WavefunctionModel& model,
                                const Matrix& batch,
                                std::span<const Real> local_energies,
                                std::span<Real> grad,
                                WavefunctionModel::Workspace* ws) {
  accumulate_energy_gradient(model, batch, local_energies,
                             mean(local_energies), Real(batch.rows()), grad,
                             ws);
}

void energy_gradient_coefficients(std::span<const Real> local_energies,
                                  Real batch_mean, Real batch_count,
                                  std::span<Real> coeff) {
  VQMC_REQUIRE(coeff.size() == local_energies.size(),
               "energy gradient: coefficient size mismatch");
  for (std::size_t k = 0; k < coeff.size(); ++k)
    coeff[k] = 2 * (local_energies[k] - batch_mean) / batch_count;
}

void accumulate_energy_gradient(const WavefunctionModel& model,
                                const Matrix& batch,
                                std::span<const Real> local_energies,
                                Real batch_mean, Real batch_count,
                                std::span<Real> grad,
                                WavefunctionModel::Workspace* ws) {
  const std::size_t bs = batch.rows();
  VQMC_REQUIRE(local_energies.size() == bs,
               "energy gradient: local energy size mismatch");
  Vector coeff(bs);
  energy_gradient_coefficients(local_energies, batch_mean, batch_count,
                               coeff.span());
  model.accumulate_log_psi_gradient_ws(batch, coeff.span(), grad, ws);
}

}  // namespace vqmc
