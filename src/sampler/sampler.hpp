#pragma once

/// \file sampler.hpp
/// \brief Sampler interface: draw configurations from a model's Born
/// distribution pi_theta(x) = psi_theta(x)^2 / <psi, psi>.
///
/// The implementations mirror Figure 1 of the paper:
///  * AUTO — exact sampling in n forward passes: FastMadeSampler for a
///    Made (the batched conditional engine), AutoregressiveSampler
///    (Algorithm 1) for the other autoregressive models.
///  * MetropolisSampler (MCMC) — random-walk Metropolis–Hastings with
///    burn-in and thinning, k + j*bs/c model evaluations, each scored
///    through the model's chain walk (wavefunction.hpp).
///
/// Each sampler draws through one virtual, sample_ws, which takes a
/// nullable model workspace like the model evaluations do
/// (wavefunction.hpp); sample() passes null.
///
/// Samplers count their forward passes so benches can report the
/// parallel-efficiency accounting of Eq. 14 directly.

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "nn/wavefunction.hpp"
#include "tensor/matrix.hpp"

namespace vqmc {

/// Cumulative work/quality counters exposed by every sampler.
struct SamplerStatistics {
  std::uint64_t forward_passes = 0;  ///< batched model evaluations
  std::uint64_t proposals = 0;       ///< MH proposals (0 for AUTO)
  std::uint64_t accepted = 0;        ///< accepted proposals (0 for AUTO)
  /// Model evaluations rejected/clamped because the model returned a
  /// non-finite value: NaN/inf log-psi proposals (MCMC, rejected outright)
  /// or NaN/inf conditionals (AUTO, clamped to an unbiased coin). A nonzero
  /// count means the model is numerically unhealthy; the trainer's health
  /// guards will usually trip on the same batch.
  std::uint64_t nonfinite_rejections = 0;

  [[nodiscard]] double acceptance_rate() const {
    return proposals == 0 ? 0.0 : double(accepted) / double(proposals);
  }
};

/// Draws batches of spin configurations for the VQMC estimators.
class Sampler {
 public:
  virtual ~Sampler() = default;

  /// Fill `out` (batch x n, entries in {0,1}) with (approximate or exact)
  /// samples from the current model distribution.  The AUTO samplers
  /// reuse the caller's model workspace `ws` for all scratch, so
  /// steady-state batches allocate nothing once shapes stabilize; `ws`
  /// may be null or of a foreign concrete type, and they then fall back
  /// to internal scratch.  MetropolisSampler keeps its chain walk's state
  /// in a workspace of its own and does not use `ws`.  Results are
  /// identical either way.
  virtual void sample_ws(Matrix& out, WavefunctionModel::Workspace* ws) = 0;

  /// sample_ws() on the sampler's own scratch.
  void sample(Matrix& out) { sample_ws(out, nullptr); }

  [[nodiscard]] virtual const SamplerStatistics& statistics() const = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Full mutable state as a flat word vector (checkpoint/restart): the RNG
  /// stream position plus any retained chain state. Restoring it into a
  /// same-kind sampler over the same model resumes the sample stream exactly
  /// — the property the kill-and-resume determinism tests assert. The base
  /// default covers stateless samplers (empty state).
  [[nodiscard]] virtual std::vector<std::uint64_t> serialize_state() const {
    return {};
  }

  /// Inverse of serialize_state(). Throws vqmc::Error on a state vector that
  /// cannot belong to this sampler kind, and then changes nothing
  /// (VqmcTrainer::restore relies on it).
  virtual void restore_state(const std::vector<std::uint64_t>& state) {
    VQMC_REQUIRE(state.empty(), name() + ": sampler state size mismatch");
  }
};

}  // namespace vqmc
