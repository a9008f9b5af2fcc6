#pragma once

/// \file local_energy.hpp
/// \brief The local-energy engine: l_theta(x) = (H psi)(x) / psi(x) (Eq. 3).
///
/// For a row-sparse Hamiltonian the local energy expands to
///
///   l(x) = H_xx + sum_{y != x} H_xy psi(y) / psi(x)
///        = H_xx + sum_{y} H_xy exp(log psi(y) - log psi(x)),
///
/// where the y-sum runs over the O(s) configurations connected to x.  The
/// engine batches the connected-configuration evaluations into forward
/// passes of bounded size so memory stays O(chunk * n) even when bs * s is
/// huge — this mirrors the paper's "fixed number of forward passes for
/// physical quantity measurements".
///
/// Diagonal Hamiltonians (Max-Cut / QUBO) short-circuit: no wavefunction
/// evaluation is needed at all, and VQMC degenerates to the
/// natural-evolution-strategies optimizer.

#include <cstdint>
#include <memory>

#include "hamiltonian/hamiltonian.hpp"
#include "nn/wavefunction.hpp"

namespace vqmc {

/// Computes batches of local energies for a fixed (H, model) pair.
class LocalEnergyEngine {
 public:
  /// \param hamiltonian the operator (not owned; must outlive the engine)
  /// \param model the trial wavefunction (not owned)
  /// \param chunk_size max rows per batched wavefunction evaluation
  /// \param max_log_ratio clamp on |log psi(y) - log psi(x)| before
  ///        exponentiation. Physical wavefunction ratios between connected
  ///        configurations are O(1); the clamp only engages when an
  ///        unnormalized model (RBM) destabilizes mid-training and keeps
  ///        the local energy finite instead of overflowing to inf/NaN.
  LocalEnergyEngine(const Hamiltonian& hamiltonian,
                    const WavefunctionModel& model,
                    std::size_t chunk_size = 1024, Real max_log_ratio = 30);

  /// Local energies of each row of `batch` into `out` (length batch.rows()).
  void compute(const Matrix& batch, std::span<Real> out);

  /// Batched model evaluations performed so far (for Figure-1 accounting).
  [[nodiscard]] std::uint64_t forward_passes() const {
    return forward_passes_;
  }
  void reset_statistics() { forward_passes_ = 0; }

 private:
  void flush_chunk(std::span<Real> out);

  const Hamiltonian& hamiltonian_;
  const WavefunctionModel& model_;
  std::size_t chunk_size_;
  Real max_log_ratio_;
  std::uint64_t forward_passes_ = 0;

  // Scratch reused across compute() calls, so a repeated batch shape
  // allocates nothing.
  /// Model evaluation workspaces (null for models without one): one for
  /// the sample batch and one for the chunks, so the two shapes never
  /// reshape each other's activations.
  std::unique_ptr<WavefunctionModel::Workspace> batch_ws_;
  std::unique_ptr<WavefunctionModel::Workspace> chunk_ws_;
  Vector log_psi_x_;
  Matrix chunk_configs_;
  Matrix partial_configs_;  ///< the filled prefix of a partial chunk
  Vector chunk_log_psi_;
  std::vector<std::size_t> chunk_sample_;  ///< sample index per chunk row
  std::vector<Real> chunk_value_;          ///< H_xy per chunk row
  std::size_t chunk_fill_ = 0;
};

}  // namespace vqmc
