#include "core/estimators.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "tensor/kernels.hpp"

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

void energy_gradient_coefficients(std::span<const Real> local_energies,
                                  Real batch_mean, Real batch_count,
                                  std::span<Real> coeff) {
  VQMC_REQUIRE(coeff.size() == local_energies.size(),
               "energy gradient: coefficient size mismatch");
  for (std::size_t k = 0; k < coeff.size(); ++k)
    coeff[k] = 2 * (local_energies[k] - batch_mean) / batch_count;
}

}  // namespace vqmc
