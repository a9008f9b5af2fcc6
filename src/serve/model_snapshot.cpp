#include "serve/model_snapshot.hpp"

#include <algorithm>

namespace vqmc::serve {

std::shared_ptr<const ModelSnapshot> ModelSnapshot::from_model(
    const Made& model) {
  return std::shared_ptr<const ModelSnapshot>(new ModelSnapshot(model));
}

std::shared_ptr<const ModelSnapshot> ModelSnapshot::from_training_snapshot(
    const TrainingSnapshot& snapshot) {
  if (snapshot.model_name != "MADE") {
    throw SnapshotMismatchError("serve: checkpoint holds a '" +
                                snapshot.model_name +
                                "' model; only MADE is servable");
  }
  const std::uint64_t n = snapshot.num_spins;
  const std::uint64_t d = snapshot.num_parameters;
  if (n < 2) {
    throw SnapshotMismatchError(
        "serve: checkpoint spin count " + std::to_string(n) +
        " is not a valid MADE (need at least 2 spins)");
  }
  // d = 2hn + h + n  =>  h = (d - n) / (2n + 1), which must be integral.
  if (d <= n || (d - n) % (2 * n + 1) != 0) {
    throw SnapshotMismatchError(
        "serve: checkpoint parameter count " + std::to_string(d) +
        " does not factor as 2hn + h + n for n = " + std::to_string(n));
  }
  const std::uint64_t h = (d - n) / (2 * n + 1);
  if (h < 1) {
    throw SnapshotMismatchError("serve: checkpoint implies hidden width 0");
  }
  if (snapshot.parameters.size() != d) {
    throw SnapshotMismatchError(
        "serve: checkpoint declares " + std::to_string(d) +
        " parameters but carries " +
        std::to_string(snapshot.parameters.size()));
  }
  Made model{std::size_t(n), std::size_t(h)};
  std::copy(snapshot.parameters.begin(), snapshot.parameters.end(),
            model.parameters().begin());
  return std::shared_ptr<const ModelSnapshot>(
      new ModelSnapshot(std::move(model)));
}

void ModelSnapshot::log_psi(const Matrix& batch, std::span<Real> out) const {
  model_.log_psi(batch, out);
}

void ModelSnapshot::log_psi(const Matrix& batch, std::span<Real> out,
                            Made::Workspace& ws) const {
  // Per-row arithmetic is independent of the batch composition, so
  // coalescing requests cannot perturb any row's value.  The forward reads
  // the frozen weights in place; all scratch is the caller's workspace.
  model_.log_psi_ws(batch, out, &ws);
}

std::uint64_t ModelSnapshot::sample(Matrix& out,
                                    std::span<const SampleSlice> slices,
                                    Made::Workspace& ws) const {
  // The shared batched conditional engine runs over the snapshot's column
  // packing (built once at construction) and W2 in place — nothing is
  // materialized per request, and all scratch lives in the caller's
  // workspace.  FastMadeSampler drives the identical engine, so the two
  // draw streams stay mutually bit-identical under the same stream.
  return sample_conditionals_batched(model_, w1_cols_.span(), out, slices, ws);
}

std::uint64_t ModelSnapshot::sample(Matrix& out,
                                    std::span<const SampleSlice> slices) const {
  Made::Workspace ws;
  return sample(out, slices, ws);
}

std::uint64_t ModelSnapshot::sample(Matrix& out, std::uint64_t seed) const {
  rng::Xoshiro256 gen(seed);
  const SampleSlice slice{0, out.rows(), &gen};
  return sample(out, std::span<const SampleSlice>(&slice, 1));
}

}  // namespace vqmc::serve
