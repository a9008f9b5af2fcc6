#pragma once

/// \file model_snapshot.hpp
/// \brief Immutable, versioned-by-the-engine MADE snapshot prepared for
/// concurrent read-only inference (DESIGN.md §5e).
///
/// A ModelSnapshot freezes one set of MADE parameters behind a `const`
/// evaluation surface:
///
///  * **Thread safety.** Every evaluation method is `const` and uses only
///    call-local (or caller-owned) scratch, so any number of worker threads
///    can evaluate the same snapshot concurrently (the TSan-covered serve
///    concurrency test hammers one snapshot from 8 threads).
///  * **Frozen column packing.**  The snapshot's parameters never change,
///    so the one derived operand the sampling path needs, W1's column
///    packing (Made::pack_w1_columns), is built exactly once, at
///    construction, and shared by every request thereafter.  Everything
///    else — both forward layers and the sampler's logit rows of W2 — is
///    read in place in the parameter vector.  A snapshot retains the
///    parameters, the packing and the mask plan: about 4.1 MB at n = 1000
///    (3.8 MB of parameters, 0.23 MB of packing).
///  * **Batching economics.** The engine's batching window amortizes the
///    per-dispatch overheads (queue handoff, batch assembly, the per-batch
///    kernel-launch fixed costs) and improves cache reuse of the shared
///    weights across coalesced rows (bench_serve_throughput measures the
///    effect).
///
/// Numerical parity is a hard contract, not an aspiration: `log_psi` *is*
/// Made's `log_psi_ws` on the caller's workspace (same prefix kernels,
/// same clamp), and `sample` replays `FastMadeSampler`'s
/// site-major/row-minor draw order over the same weights, so results are
/// bit-for-bit identical to the in-trainer paths under the same seed
/// (tests pin this).

#include <cstdint>
#include <memory>
#include <span>

#include "core/checkpoint.hpp"
#include "nn/made.hpp"
#include "rng/xoshiro.hpp"
#include "sampler/conditional_engine.hpp"
#include "serve/errors.hpp"

namespace vqmc::serve {

/// Frozen MADE weights plus their prebuilt W1 column packing; shareable
/// across threads, immutable after construction.
class ModelSnapshot {
 public:
  /// Snapshot the current parameters of a live model (deep copy).
  [[nodiscard]] static std::shared_ptr<const ModelSnapshot> from_model(
      const Made& model);

  /// Reconstruct a servable model from a training checkpoint.  Validates
  /// identity before touching any weight: the model family must be "MADE",
  /// the parameter count must factor as d = 2hn + h + n for an integral
  /// hidden width h >= 1, and the parameter vector must have exactly
  /// `num_parameters` entries.  Throws SnapshotMismatchError otherwise —
  /// a foreign checkpoint can never be silently served.
  [[nodiscard]] static std::shared_ptr<const ModelSnapshot>
  from_training_snapshot(const TrainingSnapshot& snapshot);

  [[nodiscard]] const Made& model() const { return model_; }
  [[nodiscard]] std::size_t num_spins() const { return model_.num_spins(); }
  [[nodiscard]] std::size_t hidden_size() const {
    return model_.hidden_size();
  }

  /// log |psi(x)| for each row of `batch` into `out` (length batch.rows()).
  /// Bit-identical to Made's log_psi; safe to call concurrently.
  void log_psi(const Matrix& batch, std::span<Real> out) const;

  /// Same, reusing a caller-owned (per-worker) workspace for the
  /// activation scratch.  One workspace per concurrent caller.
  void log_psi(const Matrix& batch, std::span<Real> out,
               Made::Workspace& ws) const;

  /// One coalesced request's slice of a sampling batch: rows
  /// [row_begin, row_begin + row_count) of `out`, drawn from `*gen`.
  /// Identical to (an alias of) the batched conditional engine's DrawSlice.
  using SampleSlice = DrawSlice;

  /// Exact ancestral sampling of every slice in one pass over the sites,
  /// via the shared batched conditional engine (conditional_engine.hpp).
  /// Each slice consumes its own generator in FastMadeSampler's draw order
  /// (site-major, row-minor within the slice), so a slice's rows are
  /// bit-identical to a dedicated FastMadeSampler seeded with the same
  /// stream — coalescing requests cannot change what any request receives.
  /// Non-finite conditionals are clamped to an unbiased coin; the return
  /// value counts the clamps (0 for a healthy snapshot; the uniform is
  /// consumed either way, so healthy streams are unperturbed).
  /// Safe to call concurrently: one workspace per concurrent caller, all
  /// scratch lives there — steady-state calls allocate nothing once the
  /// workspace shapes stabilize.
  std::uint64_t sample(Matrix& out, std::span<const SampleSlice> slices,
                       Made::Workspace& ws) const;

  /// Same, with call-local scratch (allocates; off the serve worker path).
  std::uint64_t sample(Matrix& out, std::span<const SampleSlice> slices) const;

  /// Convenience: fill all of `out` from a single seed.
  std::uint64_t sample(Matrix& out, std::uint64_t seed) const;

 private:
  explicit ModelSnapshot(Made model) : model_(std::move(model)) {
    model_.pack_w1_columns(w1_cols_);
  }

  Made model_;
  /// W1's column packing, built once: the parameters are frozen.
  Vector w1_cols_;
};

}  // namespace vqmc::serve
