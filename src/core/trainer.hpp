#pragma once

/// \file trainer.hpp
/// \brief The VQMC training step (right panel of Figure 1): sample ->
/// measure local energies -> estimate gradient (optionally SR-preconditioned)
/// -> update parameters, on one rank or as one of N data-parallel ranks
/// (Section 4).

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/health.hpp"
#include "common/phases.hpp"
#include "common/timer.hpp"
#include "core/checkpoint.hpp"
#include "core/estimators.hpp"
#include "core/local_energy.hpp"
#include "hamiltonian/hamiltonian.hpp"
#include "nn/wavefunction.hpp"
#include "optim/lr_schedule.hpp"
#include "optim/optimizer.hpp"
#include "optim/stochastic_reconfiguration.hpp"
#include "parallel/communicator.hpp"
#include "sampler/sampler.hpp"

namespace vqmc {

/// Training configuration; defaults follow Section 5.1.
struct TrainerConfig {
  int iterations = 300;
  std::size_t batch_size = 1024;
  bool use_sr = false;
  SrConfig sr;
  /// Optional learning-rate schedule (borrowed; must outlive the trainer).
  /// nullptr reproduces the paper's protocol (no scheduler).
  const LrSchedule* lr_schedule = nullptr;
  /// Clip the (possibly SR-preconditioned) update to this Euclidean norm
  /// before the optimizer step; 0 disables (the paper's setting).
  Real max_grad_norm = 0;
  /// Numerical run-health guards (non-finite local energies / gradients /
  /// SR updates, optional divergence detection) and the recovery policy.
  /// Defaults: fail fast (Throw) on non-finite values, divergence detection
  /// off — healthy runs are bit-identical to a guard-free trainer.
  health::GuardConfig guard;
  /// Periodic training checkpoints (DESIGN.md §5c): every
  /// `checkpoint_every` completed iterations the full training state is
  /// written atomically under `checkpoint_path` (plus a
  /// `<path>.iter<N>` history pruned to `checkpoint_keep_last` entries).
  /// Disabled when the path is empty or the period is 0.
  std::string checkpoint_path;
  int checkpoint_every = 0;
  int checkpoint_keep_last = 3;
};

/// Per-iteration metrics (the red/blue curves of Figure 2).
struct IterationMetrics {
  int iteration = 0;
  /// Batch mean local energy (training loss), over every live rank's batch.
  Real energy = 0;
  /// Batch std of the stochastic objective (this rank's batch).
  Real std_dev = 0;
  /// Lowest local energy this rank has seen so far in training.
  Real best_energy = 0;
  double seconds = 0;    ///< cumulative training wall time
  /// Cumulative health-guard trips up to and including this iteration.
  /// On a tripped iteration `std_dev` is NaN when this rank's local energies
  /// were non-finite, and `energy` when no live rank's were finite.
  std::uint64_t guard_trips = 0;
  /// Reason of the most recent guard trip; empty while the run is healthy.
  std::string guard_reason;
  /// Attributed wall time of this iteration (Table 1 / Eq. 14 accounting).
  PhaseBreakdown phases;
};

/// One elastic-shrink event: `rank` was detected dead at `iteration`,
/// leaving `live_after` ranks in the group.
struct ShrinkEvent {
  int iteration = 0;
  int rank = 0;
  int live_after = 0;
};

/// The VQMC trainer, for one rank or for one of N data-parallel ranks.
///
/// The trainer borrows (does not own) the Hamiltonian, model, sampler,
/// optimizer and communicator so callers can compose them freely; all must
/// outlive it. With the default SelfCommunicator it is the single-device
/// trainer. Given an endpoint of an N-rank group, every rank runs its own
/// trainer over its own model replica and sampler stream, and step() joins
/// them with two allreduces per iteration:
///
///   1. [energy_sum, count, bad_0..R-1, live_0..R-1] after the local
///      energies: the batch mean over every live rank, the surviving sample
///      count, the ranks whose energies were non-finite and the ranks still
///      alive;
///   2. [gradient_0..d-1, bad_0..R-1] after the gradient, skipped when the
///      first one tripped a guard: the sum of every rank's gradient, each
///      centred on the reduced mean and divided by the reduced count, and
///      the ranks whose gradient was non-finite.
///
/// A rank with non-finite values contributes zeros plus its flag, so the
/// reduced payload stays finite. Every guard decision is made from reduced
/// data, so every rank takes the same branch and the replicas stay
/// bit-identical through recoveries. A rank that left the group contributes
/// nothing; the survivors see its live flag drop to 0, record a
/// ShrinkEvent, and the reduced count rescales the gradient by itself. On
/// one rank both collectives are no-ops and the numbers are the serial
/// trainer's, bit for bit. SR runs on one rank only (`use_sr` with more
/// than one rank throws vqmc::Error).
class VqmcTrainer {
 public:
  VqmcTrainer(const Hamiltonian& hamiltonian, WavefunctionModel& model,
              Sampler& sampler, Optimizer& optimizer, TrainerConfig config,
              parallel::Communicator& comm = parallel::self_communicator());

  /// Run one training iteration and return its metrics.
  IterationMetrics step();

  /// Run config.iterations iterations (appending to the history).
  void run();

  /// Run until `stop(metrics)` returns true or config.iterations is hit.
  void run_until(const std::function<bool(const IterationMetrics&)>& stop);

  /// Mean local energy of a fresh evaluation batch (not recorded in the
  /// history; mirrors the paper's 1024-sample test evaluation).
  [[nodiscard]] EnergyEstimate evaluate(std::size_t eval_batch_size);

  /// Draw an evaluation batch and also return the configurations (for cut
  /// extraction in Max-Cut experiments).
  EnergyEstimate evaluate_with_samples(std::size_t eval_batch_size,
                                       Matrix& samples);

  [[nodiscard]] const std::vector<IterationMetrics>& history() const {
    return history_;
  }
  [[nodiscard]] const TrainerConfig& config() const { return config_; }
  [[nodiscard]] LocalEnergyEngine& local_energy_engine() { return engine_; }

  /// Cumulative training wall-time in seconds (excludes evaluate() calls).
  [[nodiscard]] double training_seconds() const { return training_seconds_; }

  /// Run-health tally: guard trips by cause and the recoveries applied.
  /// Trips are counted on every rank; the non-finite energy and gradient
  /// causes count the batches *this rank* measured non-finite.
  [[nodiscard]] const health::HealthCounters& health_counters() const {
    return health_;
  }

  /// Index of the next iteration step() runs.
  [[nodiscard]] int iteration() const { return iteration_; }

  /// Ranks detected dead so far, in detection order.
  [[nodiscard]] const std::vector<ShrinkEvent>& shrink_events() const {
    return shrink_events_;
  }

  /// Thread CPU seconds this rank spent computing (sampling, local
  /// energies, gradient, SR, update) — the per-device cost of Eq. 14.
  [[nodiscard]] double busy_seconds() const { return busy_seconds_; }

  /// Wall seconds this rank spent inside the step's allreduces, from
  /// barrier arrival: fast ranks wait for slow ones.
  [[nodiscard]] double allreduce_wait_seconds() const {
    return allreduce_wait_seconds_;
  }

  /// Capture the full mutable training state at the current iteration
  /// boundary: model parameters, optimizer moments, sampler RNG/chain state,
  /// iteration counter, guard state and the guard tallies of
  /// health_counters(). Restoring it into an identically configured trainer
  /// makes the continuation bit-identical to a run that was never
  /// interrupted (the text of the last trip reason is not kept).
  [[nodiscard]] TrainingSnapshot snapshot() const;

  /// Inverse of snapshot(). Verifies the snapshot's identity fields (model /
  /// optimizer / sampler kinds and sizes) and the trainer-state layout
  /// against this trainer and throws vqmc::Error on any mismatch.
  void restore(const TrainingSnapshot& snapshot);

 private:
  /// One allreduce_sum of `payload`, timed into the allreduce phase from
  /// barrier arrival (park time before the collective is wait time);
  /// returns its seconds.
  double allreduce(std::span<Real> payload, PhaseBreakdown& phases);
  /// True on the lowest live rank, which alone logs group-wide events.
  [[nodiscard]] bool is_reporter() const;
  /// Apply the configured guard policy after a trip; throws under Throw.
  void handle_guard_trip(const std::string& reason);
  /// Phase histograms, gauges and the flight record of one iteration.
  void record_telemetry(const IterationMetrics& metrics, int live_ranks,
                        double comm_wait);

  const Hamiltonian& hamiltonian_;
  WavefunctionModel& model_;
  Sampler& sampler_;
  Optimizer& optimizer_;
  TrainerConfig config_;
  parallel::Communicator& comm_;
  LocalEnergyEngine engine_;
  StochasticReconfiguration sr_;

  Matrix batch_;
  Vector local_energies_;
  /// [energy_sum, count, bad_0..R-1, live_0..R-1]: the first allreduce.
  std::vector<Real> energy_payload_;
  /// [gradient_0..d-1, bad_0..R-1]: the second allreduce.
  Vector gradient_;
  Vector natural_gradient_;
  Matrix per_sample_o_;
  /// Model evaluation workspace (null for models without one), threaded
  /// through the gradient phases so their scratch survives iterations.
  std::unique_ptr<WavefunctionModel::Workspace> model_ws_;

  std::vector<IterationMetrics> history_;
  Real base_learning_rate_ = 0;
  int iteration_ = 0;
  Real best_energy_ = 0;
  bool have_best_ = false;
  double training_seconds_ = 0;

  health::DivergenceDetector divergence_;
  health::HealthCounters health_;
  /// Last parameters observed to produce finite local energies (only
  /// maintained under RollbackAndBackoff).
  Vector snapshot_;
  bool have_snapshot_ = false;

  std::vector<char> known_alive_;
  std::vector<ShrinkEvent> shrink_events_;
  ThreadCpuTimer busy_;
  double busy_seconds_ = 0;
  double allreduce_wait_seconds_ = 0;

  /// Periodic-checkpoint bookkeeping; null unless configured.
  std::unique_ptr<CheckpointKeeper> keeper_;
};

}  // namespace vqmc
