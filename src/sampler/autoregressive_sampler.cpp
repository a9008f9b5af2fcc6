#include "sampler/autoregressive_sampler.hpp"

#include <cmath>

#include "common/error.hpp"
#include "rng/distributions.hpp"
#include "telemetry/metrics_registry.hpp"
#include "telemetry/tracer.hpp"

namespace vqmc {

AutoregressiveSampler::AutoregressiveSampler(const AutoregressiveModel& model,
                                             std::uint64_t seed)
    : model_(model), gen_(seed) {}

void AutoregressiveSampler::sample_ws(Matrix& out,
                                      WavefunctionModel::Workspace* ws) {
  TELEMETRY_SPAN("sample.auto");
  const std::uint64_t nonfinite_before = stats_.nonfinite_rejections;
  const std::size_t n = model_.num_spins();
  VQMC_REQUIRE(out.cols() == n, "AUTO: output batch has wrong spin count");
  const std::size_t bs = out.rows();
  VQMC_REQUIRE(bs > 0, "AUTO: batch must be non-empty");

  out.fill(0);
  // Ancestral sampling: after pass i the first i+1 sites of every row are
  // final. Conditionals for site i only read sites < i (masked), so the
  // not-yet-sampled zero entries are never consumed.
  for (std::size_t i = 0; i < n; ++i) {
    model_.conditionals(out, conditionals_, ws);
    ++stats_.forward_passes;
    for (std::size_t k = 0; k < bs; ++k) {
      Real p1 = conditionals_(k, i);
      if (!std::isfinite(p1)) {
        // A NaN/inf conditional would turn the draw into an ill-defined
        // comparison and silently bias every later site. Clamp to an
        // unbiased coin (one uniform is consumed either way, so healthy
        // runs keep a bit-identical RNG stream) and count the event so the
        // trainer's health guards can attribute the sick batch.
        ++stats_.nonfinite_rejections;
        p1 = Real(0.5);
      }
      out(k, i) = rng::bernoulli(gen_, p1) ? Real(1) : Real(0);
    }
  }

  // Unconditional instrument creation keeps every rank's instrument set
  // identical, which the cross-rank metrics merge requires.
  if (telemetry::enabled()) {
    telemetry::MetricsRegistry& registry = telemetry::metrics();
    registry.counter("sampler.auto.batches").add();
    registry.counter("sampler.auto.forward_passes").add(n);
    registry.counter("sampler.auto.samples").add(bs);
    registry.counter("sampler.nonfinite_rejections")
        .add(stats_.nonfinite_rejections - nonfinite_before);
  }
}

}  // namespace vqmc
