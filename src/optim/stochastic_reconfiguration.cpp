#include "optim/stochastic_reconfiguration.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/health.hpp"
#include "linalg/cholesky.hpp"
#include "telemetry/tracer.hpp"
#include "tensor/kernels.hpp"

namespace vqmc {

StochasticReconfiguration::StochasticReconfiguration(SrConfig config)
    : config_(config) {
  VQMC_REQUIRE(config_.regularization > 0,
               "SR: regularization must be positive");
}

SrReport StochasticReconfiguration::solve(Matrix& gram,
                                          std::span<const Real> coeff,
                                          std::span<Real> y) const {
  TELEMETRY_SPAN("sr.solve");
  const std::size_t bs = coeff.size();
  VQMC_REQUIRE(gram.rows() == bs && gram.cols() == bs && y.size() == bs,
               "SR: Gram, coefficient and solution sizes mismatch");
  VQMC_REQUIRE(bs >= 2, "SR: need at least 2 samples");

  const auto fail = [&y](const std::string& why) {
    std::fill(y.begin(), y.end(), Real(0));
    SrReport report;
    report.breakdown = true;
    report.reason = why;
    return report;
  };
  if (!health::all_finite(coeff)) return fail("non-finite coefficients");
  if (!health::all_finite(gram))
    return fail("non-finite per-sample log-derivative Gram");

  // Centre: K_c(s, t) = K(s, t) - r_s - r_t + mean(r) for the row means r
  // (held in y until the solve), then scale and shift to K_c / bs + lambda I.
  // The factorization reads only the lower triangle.
  const Real inv_bs = Real(1) / Real(bs);
  for (std::size_t s = 0; s < bs; ++s) y[s] = mean(gram.row(s));
  const Real grand = mean(y);
  const Real lambda = config_.regularization;
  for (std::size_t s = 0; s < bs; ++s) {
    Real* row = gram.row(s).data();
    const Real shift = grand - y[s];
    for (std::size_t t = 0; t <= s; ++t)
      row[t] = (row[t] - y[t] + shift) * inv_bs;
    row[s] += lambda;
  }
  if (!linalg::cholesky_factor(gram))
    return fail("Cholesky failed: S + lambda I is not positive definite");
  linalg::cholesky_solve(gram, coeff, y);
  if (!health::all_finite(y))
    return fail("sample-space solve produced a non-finite solution");
  const Real y_mean = mean(y);
  for (Real& v : y) v -= y_mean;
  return {};
}

}  // namespace vqmc
