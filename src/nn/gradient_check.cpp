#include "nn/gradient_check.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "tensor/kernels.hpp"

namespace vqmc {

namespace {

/// Weighted objective sum_k coeff[k] * log psi(x_k) at the current params.
Real weighted_log_psi(const WavefunctionModel& model, const Matrix& batch,
                      std::span<const Real> coeff) {
  Vector lp(batch.rows());
  model.log_psi(batch, lp.span());
  return dot(lp.span(), coeff);
}

}  // namespace

GradientCheckResult check_log_psi_gradient(WavefunctionModel& model,
                                           const Matrix& batch,
                                           std::span<const Real> coeff,
                                           Real eps) {
  const std::size_t d = model.num_parameters();
  Vector analytic(d);
  model.accumulate_log_psi_gradient(batch, coeff, analytic.span());

  GradientCheckResult result;
  const std::span<Real> params = model.parameters();
  for (std::size_t i = 0; i < d; ++i) {
    const Real original = params[i];
    params[i] = original + eps;
    const Real plus = weighted_log_psi(model, batch, coeff);
    params[i] = original - eps;
    const Real minus = weighted_log_psi(model, batch, coeff);
    params[i] = original;
    const Real numeric = (plus - minus) / (2 * eps);
    const Real abs_err = std::fabs(analytic[i] - numeric);
    const Real rel_err = abs_err / std::max<Real>(1, std::fabs(numeric));
    if (abs_err > result.max_abs_error) {
      result.max_abs_error = abs_err;
      result.worst_index = i;
    }
    result.max_rel_error = std::max(result.max_rel_error, rel_err);
  }
  return result;
}

GradientCheckResult check_per_sample_gradient(WavefunctionModel& model,
                                              const Matrix& batch, Real eps) {
  const std::size_t bs = batch.rows();
  const std::size_t d = model.num_parameters();
  Matrix per_sample(bs, d);
  model.log_psi_gradient_per_sample(batch, per_sample);

  GradientCheckResult result;
  const std::span<Real> params = model.parameters();
  Vector lp_plus(bs), lp_minus(bs);
  for (std::size_t i = 0; i < d; ++i) {
    const Real original = params[i];
    params[i] = original + eps;
    model.log_psi(batch, lp_plus.span());
    params[i] = original - eps;
    model.log_psi(batch, lp_minus.span());
    params[i] = original;
    for (std::size_t k = 0; k < bs; ++k) {
      const Real numeric = (lp_plus[k] - lp_minus[k]) / (2 * eps);
      const Real abs_err = std::fabs(per_sample(k, i) - numeric);
      const Real rel_err = abs_err / std::max<Real>(1, std::fabs(numeric));
      if (abs_err > result.max_abs_error) {
        result.max_abs_error = abs_err;
        result.worst_index = i;
      }
      result.max_rel_error = std::max(result.max_rel_error, rel_err);
    }
  }
  return result;
}

}  // namespace vqmc
