#include "sampler/fast_made_sampler.hpp"

#include "common/error.hpp"
#include "sampler/conditional_engine.hpp"
#include "telemetry/metrics_registry.hpp"
#include "telemetry/tracer.hpp"

namespace vqmc {

FastMadeSampler::FastMadeSampler(const Made& model, std::uint64_t seed)
    : model_(model), gen_(seed) {}

void FastMadeSampler::sample_ws(Matrix& out,
                                WavefunctionModel::Workspace* ws) {
  TELEMETRY_SPAN("sample.auto");
  const std::size_t n = model_.num_spins();
  VQMC_REQUIRE(out.cols() == n, "AUTO: output batch has wrong spin count");
  const std::size_t bs = out.rows();
  VQMC_REQUIRE(bs > 0, "AUTO: batch must be non-empty");

  // Run the shared batched conditional engine in the caller's workspace when
  // it is a Made's, else in internal scratch.  W2 is read in place; W1's
  // columns are packed from the current parameters, once per call.
  Made::Workspace& engine_ws = workspace_or(ws, scratch_);
  model_.pack_w1_columns(engine_ws.w1_cols);
  const DrawSlice slice{0, bs, &gen_};
  const std::uint64_t nonfinite = sample_conditionals_batched(
      model_, engine_ws.w1_cols.span(), out, {&slice, 1}, engine_ws);

  stats_.forward_passes += n;  // comparable accounting with Algorithm 1
  stats_.nonfinite_rejections += nonfinite;

  if (telemetry::enabled()) {
    telemetry::MetricsRegistry& registry = telemetry::metrics();
    registry.counter("sampler.auto.batches").add();
    registry.counter("sampler.auto.forward_passes").add(n);
    registry.counter("sampler.auto.samples").add(bs);
    // Created unconditionally (add(0) registers the instrument): the
    // cross-rank metrics merge requires every rank to expose the identical
    // instrument set whether or not the guard ever fired.
    registry.counter("sampler.nonfinite_rejections").add(nonfinite);
  }
}

}  // namespace vqmc
