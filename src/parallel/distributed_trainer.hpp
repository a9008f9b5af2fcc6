#pragma once

/// \file distributed_trainer.hpp
/// \brief Data-parallel VQMC across virtual devices (Section 4's sampling
/// parallelization).
///
/// Every rank holds an identical replica of the model, draws its own `mbs`
/// exact AUTO samples and runs the one training step, VqmcTrainer::step,
/// over its communicator endpoint. The step contributes to two allreduces
/// per iteration:
///
///   1. (sum of local energies, count, flags) -> the global batch mean L;
///   2. the local gradient sum               -> the global averaged gradient.
///
/// Every rank then applies the same optimizer update to its replica, so the
/// replicas stay bit-identical (the thread communicator folds reductions in
/// a fixed order) — the invariant the tests assert.  This is exactly the
/// paper's scheme with an effective batch size bs = L x mbs and O(hn)
/// communication per iteration; on one rank it is the serial trainer, bit
/// for bit.
///
/// The entry points below are drivers around that step: they build each
/// rank's replica, sampler, optimizer and trainer through the factories,
/// run the per-rank metrics registry, scrape server, scripted faults,
/// iteration hook and checkpoint resume, and finish with a global
/// evaluation and the trailing gathers.
///
/// Fault tolerance (DESIGN.md §5c): collectives take an optional deadline
/// (a hung rank aborts the group with vqmc::CommTimeoutError instead of
/// deadlocking it), and a rank declared dead leaves the group — surviving
/// ranks detect the departure through liveness flags that ride the energy
/// allreduce, rescale the gradient average by the surviving sample count,
/// and continue with bit-identical replicas. Shrink events are recorded in
/// DistributedResult::shrink_events.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/health.hpp"
#include "core/trainer.hpp"
#include "hamiltonian/hamiltonian.hpp"
#include "nn/wavefunction.hpp"
#include "parallel/cost_model.hpp"
#include "parallel/fault_injection.hpp"
#include "telemetry/metrics_registry.hpp"

namespace vqmc::parallel {

struct DistributedConfig {
  ClusterShape shape;               ///< L1 nodes x L2 GPUs
  int iterations = 300;
  std::size_t mini_batch_size = 4;  ///< mbs per device (Figure 4 uses 4)
  std::string optimizer = "ADAM";   ///< "SGD" or "ADAM"
  std::size_t eval_batch_per_rank = 64;  ///< final-evaluation draw per rank
  std::uint64_t seed = 0;
  /// Run-health guards. Every rank scans its local energies and gradient
  /// *before* contributing to an allreduce, and the bad-rank count itself is
  /// allreduced, so one sick rank is detected collectively instead of
  /// poisoning all replicas — and every rank applies the same recovery, which
  /// preserves the bit-identical-replicas invariant.
  health::GuardConfig guard;
  /// Deadline per collective; 0 = wait forever. With a deadline, a hung or
  /// silently-dead rank makes every blocked rank throw CommTimeoutError
  /// within the deadline instead of deadlocking the group.
  double comm_timeout_seconds = 0;
  /// Scripted per-rank faults (index = rank; ranks beyond the vector run
  /// fault-free). Test hook: every recovery path is exercised
  /// deterministically through these plans.
  std::vector<FaultPlan> fault_plans;
  /// Checkpoint/restart (DESIGN.md §5h). When non-empty, every rank's
  /// trainer keeps a TrainingSnapshot under "<checkpoint_base>.rank<r>"
  /// (TrainerConfig::checkpoint_path) so a killed run can resume
  /// bit-identically: written inside the step's checkpoint phase after
  /// every `checkpoint_every`-th iteration completes, the last one
  /// included, with the serial trainer's `.iter<N>` history and retention.
  std::string checkpoint_base;
  int checkpoint_every = 0;  ///< snapshot cadence in iterations; 0 disables
  /// Load "<checkpoint_base>.rank<r>" before training and continue from the
  /// recorded iteration. The replayed tail is bit-identical to the original
  /// run (parameters, optimizer moments, sampler RNG and guard state are all
  /// restored); energy_history slots before the resume point read 0.
  bool resume = false;
  /// Live observability (DESIGN.md §5i). When non-empty, every rank runs a
  /// StatusServer on `obs::rank_endpoint(obs_endpoint, rank)` and rank 0
  /// additionally aggregates the group, so scraping `obs_endpoint` mid-run
  /// returns per-rank allreduce waits, iteration counters and membership.
  std::string obs_endpoint;
};

struct DistributedResult {
  std::vector<Real> energy_history;  ///< global batch-mean energy per iter
  Real converged_energy = 0;         ///< global mean over the final eval batch
  Real converged_std = 0;
  /// Busy (compute-only) seconds of the slowest rank — the measured analog
  /// of the paper's per-GPU execution time.
  double max_rank_busy_seconds = 0;
  /// Modeled wall time for the whole run on the V100-class cluster.
  double modeled_seconds = 0;
  /// Final replica parameters (the lowest surviving rank's copy; equals
  /// every surviving rank's).
  std::vector<Real> final_parameters;
  /// True iff all surviving replicas ended bit-identical (checked via
  /// allreduce).
  bool replicas_identical = false;
  /// Training iterations on which the health guard tripped (identical on
  /// every rank: the trip decision is made after an allreduce).
  std::uint64_t guard_trips = 0;
  /// Per-rank count of iterations where *this rank's* local energies or
  /// gradient were non-finite (length shape.total()). Summing gives the
  /// total number of bad contributions; a single hot rank shows up directly.
  std::vector<std::uint64_t> guard_trips_per_rank;
  /// Reason of the most recent guard trip; empty for a healthy run.
  std::string last_trip_reason;
  /// Elastic-recovery log: one entry per rank detected dead, in detection
  /// order. Empty for a healthy run.
  std::vector<ShrinkEvent> shrink_events;
  /// Ranks still alive at the end of the run.
  int final_live_ranks = 0;
  /// Wall seconds each rank spent blocked inside allreduces (length
  /// shape.total()). The spread across ranks is the straggler signature:
  /// fast ranks wait for slow ones, so the slowest rank shows the *least*
  /// wait (DESIGN.md §5d).
  std::vector<double> allreduce_wait_seconds_per_rank;
  /// Per-rank telemetry merged across the surviving ranks (one trailing
  /// allreduce over the packed additive state). Empty when telemetry is
  /// disabled.
  telemetry::MetricsSnapshot merged_metrics;
};

/// Train `prototype` (autoregressive; AUTO sampling) on `hamiltonian`
/// data-parallel across shape.total() thread-backed ranks.
DistributedResult train_distributed(const Hamiltonian& hamiltonian,
                                    const AutoregressiveModel& prototype,
                                    const DistributedConfig& config,
                                    const DeviceCostModel& device = {});

/// Run ONE rank of the same data-parallel training on an already-connected
/// communicator endpoint — any backend (thread, socket, self). This is what
/// a vqmc_launch worker process calls after its socket rendezvous; it runs
/// the same rank driver, and so the same VqmcTrainer::step, as the
/// thread-backed driver.
///
/// Returns this endpoint's complete view of the run. Global fields
/// (energy_history, converged stats, shrink_events, final_parameters,
/// replicas_identical) are identical on every surviving rank because they
/// derive from allreduced data only. The per-rank vectors are gathered
/// through one trailing allreduce, so slots of ranks that died before the
/// end read 0.
///
/// `iteration_hook`, when set, runs at the top of every training iteration
/// before any collective — the seam where vqmc_launch applies scripted
/// real-process faults (see process_faults.hpp). `config.shape.total()`
/// must equal `comm.size()`.
DistributedResult train_distributed_on(
    const Hamiltonian& hamiltonian, const AutoregressiveModel& prototype,
    const DistributedConfig& config, Communicator& comm,
    const DeviceCostModel& device = {},
    const std::function<void(long long)>& iteration_hook = {});

}  // namespace vqmc::parallel
