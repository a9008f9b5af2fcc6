#pragma once

/// \file local_energy.hpp
/// \brief The local-energy engine: l_theta(x) = (H psi)(x) / psi(x) (Eq. 3).
///
/// For a row-sparse Hamiltonian the local energy expands to
///
///   l(x) = H_xx + sum_{y != x} H_xy psi(y) / psi(x)
///        = H_xx + sum_{y} H_xy exp(log psi(y) - log psi(x)),
///
/// where the y-sum runs over the O(s) configurations connected to x.
///
/// **Distinct rows.**  compute() evaluates each distinct configuration of
/// a batch once and copies its energy to every repeat: the rows are
/// grouped by their bytes (a hash of each row's 64-bit words, confirmed
/// by memcmp), evaluated in place when every row is distinct and gathered
/// into an engine-owned matrix otherwise.  AUTO batches repeat rows as
/// MADE concentrates, and MCMC chains emit the same state on every
/// rejected step.  This is exact because of the contract below: a row's
/// local energy does not depend on the rows around it.  A diagonal
/// Hamiltonian (Max-Cut, QUBO) evaluates no model, so it is not grouped.
///
/// **Two ways to the log-psi ratios** (DESIGN.md §5l), chosen by the
/// entry's flip set and the model, never by configuration:
///
///  * Flip path.  Every single-site entry (all of TIM's) goes through
///    WavefunctionModel::log_psi_flip_ratios: one batched call per
///    compute() returns the ratios of every requested site for every row.
///    MADE and RBM implement it incrementally, in O(h n^2 / 6) and O(h n)
///    per sample instead of one full forward per flipped copy.
///  * Full-forward path.  Multi-site entries (XXZ pair exchanges), and
///    every entry of a model without a flip path (DeepMADE, RNN), are
///    copied into chunks of connected configurations and evaluated by
///    log_psi, so memory stays O(chunk * n) even when bs * s is huge: the
///    paper's "fixed number of forward passes for physical quantity
///    measurements".  Its buffers are allocated only when it runs.
///
/// The diagonal comes from one Hamiltonian::diagonal_batch call per
/// evaluation (TIM: a kernel whose vector lanes are rows).  Per row the
/// terms are added in a fixed order: the diagonal, then the full-forward
/// entries, then the single-site entries, each in the Hamiltonian's
/// visiting order.  **Contract:** a row's local energy is bitwise the same
/// alone, inside any batch, at any position, repeated or not, and at any
/// thread count.
///
/// Scratch persists across calls, and matrices keep storage that is large
/// enough (ensure_shape), so a warm engine allocates nothing for any batch
/// or distinct count up to the largest seen.  Each compute() adds the
/// batch's rows and its distinct rows to the counters `local_energy.rows`
/// and `local_energy.distinct_rows` (a diagonal Hamiltonian counts every
/// row as distinct).

#include <cstdint>
#include <memory>
#include <vector>

#include "hamiltonian/hamiltonian.hpp"
#include "nn/wavefunction.hpp"

namespace vqmc {

/// Parity bound of the flip path: each log-psi ratio agrees with
/// log_psi(x') - log_psi(x) from two full forwards within
/// kFlipRatioTolerance * max(1, |log_psi(x)|), and each local energy with
/// the full-forward engine's within kFlipRatioTolerance *
/// (|H_xx| + sum_y |H_xy| psi(y)/psi(x)).  The paths round differently —
/// a sum of per-site changes against the difference of two full sums — and
/// measured disagreements sit four orders of magnitude below the bound
/// (BENCH_local_energy.json).
inline constexpr Real kFlipRatioTolerance = 1e-10;

/// Rows per batched evaluation of the full-forward path: the engine's
/// default, which the trainer uses and the cost model assumes.
inline constexpr std::size_t kDefaultLocalEnergyChunk = 1024;

/// Computes batches of local energies for a fixed Hamiltonian and a bound
/// model.
class LocalEnergyEngine {
 public:
  /// \param hamiltonian the operator (not owned; must outlive the engine)
  /// \param model the trial wavefunction (not owned; see bind())
  /// \param chunk_size max rows per batched evaluation of the full-forward
  ///        path; the flip path does not chunk
  /// \param max_log_ratio clamp on |log psi(y) - log psi(x)| before
  ///        exponentiation. Physical wavefunction ratios between connected
  ///        configurations are O(1); the clamp only engages when an
  ///        unnormalized model (RBM) destabilizes mid-training and keeps
  ///        the local energy finite instead of overflowing to inf/NaN.
  LocalEnergyEngine(const Hamiltonian& hamiltonian,
                    const WavefunctionModel& model,
                    std::size_t chunk_size = kDefaultLocalEnergyChunk,
                    Real max_log_ratio = 30);

  /// Rebind to another model over the same spins (serve: a newly published
  /// snapshot).  The scratch, model workspaces included, is kept, so a
  /// long-lived engine stops allocating once batch shapes stabilize; a
  /// model of another family than the first computes the same values over
  /// per-call scratch of its own.
  void bind(const WavefunctionModel& model);

  /// Local energies of each row of `batch` into `out` (length batch.rows()),
  /// each distinct row evaluated once.
  void compute(const Matrix& batch, std::span<Real> out);

  /// Batched model evaluations performed so far (for Figure-1 accounting),
  /// over the distinct rows of each batch: one per flip-path call and one
  /// per full-forward chunk, plus the full-forward path's one pass over the
  /// distinct rows.
  [[nodiscard]] std::uint64_t forward_passes() const {
    return forward_passes_;
  }
  void reset_statistics() { forward_passes_ = 0; }

 private:
  /// Groups the rows of `batch` by their bytes into row_group_ and
  /// group_first_; returns the number of distinct rows.
  std::size_t group_rows(const Matrix& batch);
  /// Local energies of every row of `rows` (no grouping).
  void evaluate(const Matrix& rows, std::span<Real> out);
  /// Full-forward path: buffer one connected configuration of row k.
  void push_connected(const Matrix& batch, std::size_t k,
                      std::span<const std::size_t> flips, Real value,
                      std::span<Real> out);
  void flush_chunk(const Matrix& batch, std::span<Real> out);
  [[nodiscard]] Real exp_clamped(Real log_ratio) const;

  const Hamiltonian& hamiltonian_;
  const WavefunctionModel* model_;
  std::size_t chunk_size_;
  Real max_log_ratio_;
  std::uint64_t forward_passes_ = 0;

  // Scratch reused across compute() calls, so a warm engine allocates
  // nothing.  Model workspaces are null for models without one.
  // Grouping: the distinct index of each row, the first row and the hash of
  // each distinct row, an open-addressing table of distinct indices, and
  // the gathered distinct rows with their energies.
  std::vector<std::size_t> row_group_;
  std::vector<std::size_t> group_first_;
  std::vector<std::uint64_t> group_hash_;
  std::vector<std::size_t> slots_;
  Matrix distinct_rows_;
  std::vector<Real> distinct_out_;
  /// The sample rows' evaluation: the flip path, or the full-forward
  /// path's log psi(x).
  std::unique_ptr<WavefunctionModel::Workspace> batch_ws_;
  // Flip path.
  Matrix flip_ratios_;                   ///< bs x sites
  std::vector<std::size_t> flip_sites_;  ///< sites of single-site entries
  std::vector<std::size_t> site_column_; ///< n; site -> flip_ratios_ column
  // Full-forward path (allocated on first use).  Whole chunks and the
  // partial last chunk have a workspace each, so neither reshapes the
  // other's activations.
  std::unique_ptr<WavefunctionModel::Workspace> chunk_ws_;
  std::unique_ptr<WavefunctionModel::Workspace> partial_ws_;
  bool have_log_psi_x_ = false;  ///< log_psi_x_ holds this batch's values
  std::vector<Real> log_psi_x_;
  Matrix chunk_configs_;
  Matrix partial_configs_;  ///< the filled prefix of a partial chunk
  Vector chunk_log_psi_;
  std::vector<std::size_t> chunk_sample_;  ///< sample index per chunk row
  std::vector<Real> chunk_value_;          ///< H_xy per chunk row
  std::size_t chunk_fill_ = 0;
};

}  // namespace vqmc
