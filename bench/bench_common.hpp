#pragma once

/// \file bench_common.hpp
/// \brief Shared experiment runner for the paper-reproduction benches.
///
/// Every bench binary regenerates one table or figure of Zhao et al.
/// (SC'21).  Defaults are scaled down so the whole harness completes on a
/// single CPU core (this substrate's "GPU" is a software device — see
/// DESIGN.md); pass `--full` for the paper-scale parameters.  Each binary
/// prints the scale factors it used so results are never mistaken for
/// paper-scale numbers.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/options.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "core/factory.hpp"
#include "core/trainer.hpp"
#include "hamiltonian/maxcut.hpp"
#include "hamiltonian/transverse_field_ising.hpp"
#include "nn/wavefunction.hpp"

namespace vqmc::bench {

/// Scale profile for one bench run.
struct Scale {
  std::vector<int> dims;       ///< problem sizes to sweep
  int iterations = 0;          ///< training iterations
  std::size_t batch_size = 0;  ///< training batch
  std::size_t eval_batch = 0;  ///< evaluation batch
  int seeds = 0;               ///< independent repetitions
};

/// The paper's settings (Section 5.1).
inline Scale paper_scale() {
  return {{20, 50, 100, 200, 500}, 300, 1024, 1024, 5};
}

/// One-CPU-core defaults: same protocol, smaller sweep.
inline Scale quick_scale() { return {{20, 50, 100}, 60, 128, 256, 2}; }

/// Standard bench option set; returns the scale selected by the flags.
Scale parse_scale(OptionParser& opts, int argc, const char* const* argv,
                  bool& ok);

/// Register the standard options on a parser (call before parse_scale).
void add_scale_options(OptionParser& opts);

/// Print the standard scale banner.
void print_scale_banner(const std::string& artifact, const Scale& scale,
                        bool full);

/// Result of one (model, sampler, optimizer) training run.
struct ComboResult {
  Real eval_energy = 0;     ///< mean local energy over the eval batch
  Real eval_std = 0;        ///< std of the stochastic objective
  Real mean_cut = 0;        ///< Max-Cut only: cut implied by eval energy
  Real best_cut = 0;        ///< Max-Cut only: best cut among eval samples
  double train_seconds = 0; ///< wall time of the training loop
  /// Where the training time went, summed over the history (Table 1 /
  /// DESIGN.md §5d attribution).
  PhaseBreakdown phase_totals;
  std::vector<IterationMetrics> history;
  /// Rows the local-energy engine saw during training, and how many of
  /// them were distinct (the local_energy.rows and
  /// local_energy.distinct_rows counters; both 0 with telemetry off).
  std::uint64_t local_energy_rows = 0;
  std::uint64_t local_energy_distinct_rows = 0;
};

/// One-line phase attribution in kPhases order, e.g.
/// "sample 42% | local_energy 31% | gradient 18% | optimizer 9%" (phases
/// below 0.5% of the total are omitted; empty string when nothing was
/// attributed).
std::string format_phase_breakdown(const PhaseBreakdown& phases);

/// Every kPhases row as a JSON object of seconds, keyed by the row's name
/// like the trainer's metrics JSON: {"sample": s, ..., "sr": s, ...,
/// "checkpoint": s}.
std::string phases_to_json(const PhaseBreakdown& phases);

/// Build the (model, sampler, optimizer) combo from row labels and train it
/// on `hamiltonian`. `hidden == 0` selects the family default.
ComboResult run_combo(const Hamiltonian& hamiltonian,
                      const std::string& model_kind,
                      const std::string& sampler_kind,
                      const std::string& optimizer_kind, const Scale& scale,
                      std::uint64_t seed, std::size_t hidden = 0,
                      MetropolisConfig mcmc = {});

/// Mean / sample-std over per-seed values (std = 0 for a single seed).
std::pair<Real, Real> mean_std(const std::vector<Real>& values);

// -- Timing helpers of the benches that write a BENCH_*.json artifact -------

/// Per-call milliseconds of `fn` over one timed block of `calls`.
double block_ms(const std::function<void()>& fn, std::size_t calls);

/// The middle element of `v` (the upper one of an even count).
double median(std::vector<double> v);

/// The provenance block every BENCH_*.json artifact carries: the members
/// "commit" (the bench's --commit value), "cpu_model" (from /proc/cpuinfo),
/// "simd_level" (the active kernel dispatch level), "threads" (the OpenMP
/// thread count at the call), "compiler" and "build_type", one per
/// two-space-indented line, each ending in ",\n" so the artifact's own
/// members follow.  Call it after any omp_set_num_threads.
std::string provenance_json(const std::string& commit);

/// `value` in scientific notation with two decimals.
std::string scientific(double value);

/// Forwards log psi and the gradient of another model and nothing else, so
/// every other evaluation takes the base class's full-forward default: a
/// LocalEnergyEngine bound to it evaluates every connected configuration
/// with a full forward, and a MetropolisSampler over it scores each MH
/// step with one batched log_psi over the c proposals.  The benches time
/// the wrapped model's fast paths against it in the same run.
class FullForwardModel final : public WavefunctionModel {
 public:
  explicit FullForwardModel(WavefunctionModel& inner) : inner_(inner) {}

  std::unique_ptr<Workspace> make_workspace() const override {
    return inner_.make_workspace();
  }
  std::size_t num_spins() const override { return inner_.num_spins(); }
  std::size_t num_parameters() const override {
    return inner_.num_parameters();
  }
  std::span<Real> parameters() override { return inner_.parameters(); }
  std::span<const Real> parameters() const override {
    return std::as_const(inner_).parameters();
  }
  void initialize(std::uint64_t seed) override { inner_.initialize(seed); }
  void log_psi_ws(const Matrix& batch, std::span<Real> out,
                  Workspace* ws) const override {
    inner_.log_psi_ws(batch, out, ws);
  }
  void accumulate_log_psi_gradient_ws(const Matrix& batch,
                                      std::span<const Real> coeff,
                                      std::span<Real> grad,
                                      Workspace* ws) const override {
    inner_.accumulate_log_psi_gradient_ws(batch, coeff, grad, ws);
  }
  std::string name() const override { return inner_.name(); }
  std::unique_ptr<WavefunctionModel> clone() const override {
    return inner_.clone();
  }

 private:
  WavefunctionModel& inner_;
};

}  // namespace vqmc::bench
