#include "parallel/distributed_trainer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "common/error.hpp"
#include "common/health.hpp"
#include "common/logging.hpp"
#include "common/phases.hpp"
#include "core/checkpoint.hpp"
#include "core/factory.hpp"
#include "core/trainer.hpp"
#include "nn/made.hpp"
#include "obs/exposition.hpp"
#include "parallel/thread_communicator.hpp"
#include "rng/splitmix.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics_registry.hpp"
#include "telemetry/tracer.hpp"
#include "tensor/kernels.hpp"

namespace vqmc::parallel {

namespace {

void validate_config(const DistributedConfig& config) {
  VQMC_REQUIRE(config.shape.total() >= 1, "distributed: empty cluster");
  VQMC_REQUIRE(config.mini_batch_size >= 1, "distributed: mbs must be >= 1");
  VQMC_REQUIRE(config.iterations >= 0, "distributed: iterations must be >= 0");
  VQMC_REQUIRE(config.comm_timeout_seconds >= 0,
               "distributed: comm timeout must be >= 0");
  VQMC_REQUIRE(config.checkpoint_every >= 0,
               "distributed: checkpoint cadence must be >= 0");
  VQMC_REQUIRE(!config.resume || !config.checkpoint_base.empty(),
               "distributed: resume requires checkpoint_base");
  if (config.optimizer != "SGD" && config.optimizer != "ADAM") {
    if (config.optimizer.find("SR") != std::string::npos)
      throw Error("distributed: optimizer '" + config.optimizer +
                  "' is not supported: stochastic reconfiguration is only "
                  "available in the serial VqmcTrainer (TrainerConfig::use_sr)"
                  " until distributed SR lands");
    throw Error("distributed: unknown optimizer '" + config.optimizer +
                "' (expected \"SGD\" or \"ADAM\")");
  }
}

double modeled_run_seconds(const DistributedConfig& config,
                           const AutoregressiveModel& prototype,
                           const DeviceCostModel& device, std::size_t n) {
  std::size_t hidden = 0;
  if (const auto* made = dynamic_cast<const Made*>(&prototype))
    hidden = made->hidden_size();
  if (hidden == 0) return 0;
  return double(config.iterations) *
         model_iteration_seconds(device, config.shape, n, hidden,
                                 config.mini_batch_size,
                                 kDefaultLocalEnergyChunk);
}

/// Everything one endpoint knows when its part of the run ends. `result`
/// is this endpoint's view: its global fields are identical on every rank
/// that reached the end (they derive from allreduced data only), and its
/// per-rank fields come from one trailing gather allreduce, so slots of
/// ranks dead by then read 0.
struct RankOutcome {
  DistributedResult result;
  bool reached_end = false;        ///< false when this rank died mid-run
  bool is_final_reporter = false;  ///< lowest rank alive at the end
  // This rank's own tallies (valid even when it died mid-run):
  double my_busy_seconds = 0;
  double my_allreduce_wait_seconds = 0;
  std::uint64_t my_bad_contributions = 0;
};

/// One rank's driver, shared by the thread-backed and the multi-process
/// (socket-backed) entry points: it builds the rank's replica, sampler,
/// optimizer and trainer, loops VqmcTrainer::step over `comm`, and runs the
/// final evaluation and the trailing gathers.
RankOutcome run_rank(const Hamiltonian& hamiltonian,
                     const AutoregressiveModel& prototype,
                     const DistributedConfig& config, Communicator& endpoint,
                     const std::function<void(long long)>& iteration_hook) {
  const int rank = endpoint.rank();
  const int num_ranks = endpoint.size();
  const std::size_t n = hamiltonian.num_spins();
  // Rank attribution for this thread: log lines gain a "[rank N]" prefix,
  // trace spans and JSONL events carry the rank field.
  set_log_rank(rank);

  // Optional scripted faults for this rank (test hook): route the rank's
  // collectives through the fault-injecting decorator.
  FaultPlan plan;
  if (std::size_t(rank) < config.fault_plans.size())
    plan = config.fault_plans[std::size_t(rank)];
  FaultInjectingCommunicator injected(endpoint, plan);
  Communicator& comm = plan.empty() ? endpoint : injected;

  RankOutcome outcome;
  DistributedResult& result = outcome.result;
  result.energy_history.assign(std::size_t(config.iterations), Real(0));
  result.guard_trips_per_rank.assign(std::size_t(num_ranks), 0);
  result.allreduce_wait_seconds_per_rank.assign(std::size_t(num_ranks), 0.0);

  // Per-rank replica and private RNG stream. Replicas start identical
  // (same prototype); the sampler streams differ per rank — and are
  // independent of the cluster size, so a group that shrinks to the same
  // live set as a smaller cluster follows the identical trajectory.
  const std::unique_ptr<WavefunctionModel> replica = prototype.clone();
  const std::uint64_t rank_seed =
      config.seed ^ rng::splitmix64_once(std::uint64_t(rank) + 1);
  const std::unique_ptr<Sampler> sampler =
      make_sampler("AUTO", *replica, rank_seed);
  const std::unique_ptr<Optimizer> optimizer =
      make_optimizer(config.optimizer);
  TrainerConfig trainer_config;
  trainer_config.iterations = config.iterations;
  trainer_config.batch_size = config.mini_batch_size;
  trainer_config.guard = config.guard;
  // Checkpoint/restart: each rank's trainer keeps its own TrainingSnapshot
  // under "<base>.rank<r>", written after a cadence iteration completes, so
  // a boundary kill at iteration k resumes exactly at the last cadence
  // point <= k and replays a bit-identical tail.
  if (!config.checkpoint_base.empty()) {
    trainer_config.checkpoint_path =
        config.checkpoint_base + ".rank" + std::to_string(rank);
    trainer_config.checkpoint_every = config.checkpoint_every;
  }
  VqmcTrainer trainer(hamiltonian, *replica, *sampler, *optimizer,
                      trainer_config, comm);
  if (config.resume) {
    trainer.restore(load_training_checkpoint(trainer_config.checkpoint_path));
    VQMC_REQUIRE(trainer.iteration() <= config.iterations,
                 "distributed: checkpoint iteration out of range");
  }

  // Per-rank metrics: this thread's `metrics()` calls — including the
  // trainer's, the sampler's and the communicator's — land in a private
  // registry. Pre-creating every instrument the rank can touch makes the
  // instrument set (and therefore the pack_additive payload layout)
  // identical on every rank regardless of which guard/recovery/death
  // branches actually ran, which the end-of-run allreduce merge requires.
  telemetry::MetricsRegistry rank_registry;
  const telemetry::ScopedMetricsRegistry scoped_registry(rank_registry);
  rank_registry.counter("sampler.auto.batches");
  rank_registry.counter("sampler.auto.forward_passes");
  rank_registry.counter("sampler.auto.samples");
  rank_registry.counter("sampler.nonfinite_rejections");
  rank_registry.counter("local_energy.rows");
  rank_registry.counter("local_energy.distinct_rows");
  rank_registry.counter("trainer.iterations");
  rank_registry.counter("trainer.guard_trips");
  rank_registry.counter("comm.socket.connect_retries");
  rank_registry.counter("comm.socket.collectives");
  rank_registry.counter("comm.socket.peer_deaths");
  rank_registry.counter("comm.socket.aborts");
  rank_registry.histogram("comm.socket.collective_seconds");
  rank_registry.histogram("comm.allreduce_wait_seconds");
  for (const Phase& phase : kPhases) rank_registry.histogram(phase.histogram);
  // Gauges ride a trailing allreduce_max (not the additive merge), but the
  // layout-identical rule is the same — pre-create them all.
  rank_registry.gauge("trainer.iteration");
  rank_registry.gauge("comm.live_ranks").set(double(num_ranks));

  // Live exposition (DESIGN.md §5i): a per-rank scrape server over this
  // rank's private registry + flight-recorder slice. Rank 0 also gets the
  // group base so one scrape of `config.obs_endpoint` pulls every rank.
  // Declared before the try so a mid-run abort still answers scrapes until
  // run_rank unwinds.
  std::unique_ptr<obs::StatusServer> obs_server;
  if (!config.obs_endpoint.empty()) {
    obs::StatusServerOptions obs_options;
    obs_options.endpoint = obs::rank_endpoint(config.obs_endpoint, rank);
    obs_options.rank = rank;
    obs_options.world = num_ranks;
    if (rank == 0) obs_options.group_base = config.obs_endpoint;
    obs_server = std::make_unique<obs::StatusServer>(
        obs_options, [&rank_registry, rank, num_ranks] {
          obs::StatusReport report;
          report.add_metrics(rank_registry.snapshot());
          const telemetry::FlightRecorder& recorder =
              telemetry::FlightRecorder::instance();
          telemetry::FlightRecord last;
          if (recorder.latest(last, rank)) {
            report.set_field("energy", last.energy);
            report.set_field("live_ranks", double(last.live_ranks));
            report.set_field("guard_trips", double(last.guard_trips));
          }
          report.set_field("iteration_rate", recorder.iteration_rate(rank));
          report.set_field("world", double(num_ranks));
          report.set_field("trace_active",
                           telemetry::Tracer::instance().active() ? 1.0 : 0.0);
          report.set_field(
              "trace_events",
              double(telemetry::Tracer::instance().events().size()));
          return report;
        });
  }

  // This rank's own view; kept on every exit path, so a rank that dies
  // mid-run still reports what it did.
  std::uint64_t bad_evaluations = 0;
  const auto keep_own_view = [&] {
    const health::HealthCounters& health = trainer.health_counters();
    outcome.my_busy_seconds = trainer.busy_seconds();
    outcome.my_allreduce_wait_seconds = trainer.allreduce_wait_seconds();
    outcome.my_bad_contributions =
        health.nonfinite_energy + health.nonfinite_gradient + bad_evaluations;
    result.shrink_events = trainer.shrink_events();
  };

  try {
    while (trainer.iteration() < config.iterations) {
      const int iter = trainer.iteration();
      // Real-process fault seam (vqmc_launch): kills never return, a
      // scripted leave throws RankDeadError, a stop blocks until SIGCONT.
      if (iteration_hook) iteration_hook(iter);

      if (plan.kill_at_iteration == iter) {
        // Cooperative death at an iteration boundary: leave the group so
        // peers' collectives complete without this rank, then unwind.
        comm.leave();
        throw RankDeadError("fault injection: rank " + std::to_string(rank) +
                            " killed at iteration " + std::to_string(iter));
      }

      // Every rank records the (identical, allreduced) iteration energy.
      result.energy_history[std::size_t(iter)] = trainer.step().energy;
    }

    // Final evaluation: fresh samples on every surviving rank, global
    // mean/std. A rank with non-finite evaluation energies is excluded
    // (zero contribution + flag) rather than poisoning the global
    // estimate; the exclusion is reported through guard_trips_per_rank and
    // last_trip_reason. Liveness flags ride along so the survivors agree
    // on who reports the result.
    std::string last_reason = trainer.health_counters().last_trip_reason;
    const std::size_t eb = std::max<std::size_t>(1, config.eval_batch_per_rank);
    Matrix eval_batch(eb, n);
    Vector eval_energies(eb);
    sampler->sample(eval_batch);
    trainer.local_energy_engine().compute(eval_batch, eval_energies.span());
    const bool bad_eval = !health::all_finite(eval_energies.span());
    std::vector<Real> moments(4 + std::size_t(num_ranks), Real(0));
    moments[0] = sum(eval_energies.span());
    moments[1] = dot(eval_energies.span(), eval_energies.span());
    moments[2] = Real(eb);
    if (bad_eval) {
      moments[0] = moments[1] = moments[2] = 0;
      moments[3] = 1;
      ++bad_evaluations;
    }
    moments[4 + std::size_t(rank)] = 1;  // live
    comm.allreduce_sum(std::span<Real>(moments.data(), moments.size()));
    if (moments[3] > 0)
      last_reason = "non-finite evaluation energies on " +
                    std::to_string(int(moments[3])) + " rank(s)";
    int final_live = 0;
    int final_reporter = num_ranks;
    for (int r = 0; r < num_ranks; ++r) {
      if (moments[4 + std::size_t(r)] > 0) {
        ++final_live;
        final_reporter = std::min(final_reporter, r);
      }
    }

    // Replica-consistency check: max minus min of each parameter across
    // the surviving ranks must be zero.
    const std::span<const Real> params = std::as_const(*replica).parameters();
    Vector p_max(params.size());
    Vector p_neg_min(params.size());
    for (std::size_t i = 0; i < params.size(); ++i) {
      p_max[i] = params[i];
      p_neg_min[i] = -params[i];
    }
    comm.allreduce_max(p_max.span());
    comm.allreduce_max(p_neg_min.span());
    Real spread = 0;
    for (std::size_t i = 0; i < p_max.size(); ++i)
      spread = std::max(spread, p_max[i] + p_neg_min[i]);

    // Cross-rank telemetry merge: one trailing allreduce over the packed
    // additive state. Every surviving rank pre-created the same instrument
    // set, so the payload layouts line up element-wise. Appended after all
    // existing collectives, so scripted fault call-indices are unaffected.
    telemetry::MetricsSnapshot merged = rank_registry.snapshot();
    std::vector<Real> metrics_payload = merged.pack_additive();
    comm.allreduce_sum(
        std::span<Real>(metrics_payload.data(), metrics_payload.size()));
    merged.apply_summed(metrics_payload);

    // Gather the per-rank tallies (busy time, allreduce wait, bad
    // contributions) with one more trailing allreduce so every survivor —
    // including a standalone vqmc_launch process — holds the full vectors.
    keep_own_view();
    std::vector<Real> gathered(3 * std::size_t(num_ranks), Real(0));
    gathered[std::size_t(rank)] = Real(outcome.my_busy_seconds);
    gathered[std::size_t(num_ranks) + std::size_t(rank)] =
        Real(outcome.my_allreduce_wait_seconds);
    gathered[2 * std::size_t(num_ranks) + std::size_t(rank)] =
        Real(outcome.my_bad_contributions);
    comm.allreduce_sum(std::span<Real>(gathered.data(), gathered.size()));

    // Gauges merge by max, not sum (summing instantaneous readings across
    // ranks invents values nobody measured — DESIGN.md §5i). One more
    // trailing collective, appended last so scripted fault call-indices
    // stay put.
    std::vector<Real> gauge_payload = merged.pack_gauges();
    if (!gauge_payload.empty()) {
      comm.allreduce_max(
          std::span<Real>(gauge_payload.data(), gauge_payload.size()));
      merged.apply_gauge_max(gauge_payload);
    }
    for (std::size_t r = 0; r < std::size_t(num_ranks); ++r) {
      result.max_rank_busy_seconds =
          std::max(result.max_rank_busy_seconds, double(gathered[r]));
      result.allreduce_wait_seconds_per_rank[r] =
          double(gathered[std::size_t(num_ranks) + r]);
      result.guard_trips_per_rank[r] =
          std::uint64_t(gathered[2 * std::size_t(num_ranks) + r]);
    }

    const Real mean = moments[2] > 0
                          ? moments[0] / moments[2]
                          : std::numeric_limits<Real>::quiet_NaN();
    const Real var =
        moments[2] > 0
            ? std::max<Real>(0, moments[1] / moments[2] - mean * mean)
            : std::numeric_limits<Real>::quiet_NaN();
    result.converged_energy = mean;
    result.converged_std = std::sqrt(var);
    result.replicas_identical = spread == Real(0);
    result.guard_trips = trainer.health_counters().guard_trips;
    result.last_trip_reason = last_reason;
    result.final_live_ranks = final_live;
    result.final_parameters.assign(params.begin(), params.end());
    result.merged_metrics = std::move(merged);
    outcome.reached_end = true;
    outcome.is_final_reporter = rank == final_reporter;
  } catch (const RankDeadError&) {
    // This rank is dead; it has already left the group, so the survivors'
    // collectives complete without it. Its own tallies are kept in the
    // outcome and the shrink itself is detected and reported by the
    // survivors through the liveness flags.
    telemetry::set_iteration(-1);
    keep_own_view();
  } catch (const Error& e) {
    // Aborting mid-run (comm timeout, guard Throw, corruption): leave the
    // flight-recorder evidence behind before unwinding. A no-op unless a
    // crash dir was configured.
    telemetry::set_iteration(-1);
    telemetry::FlightRecorder::instance().dump_crash_report(e.what(), rank);
    throw;
  }
  return outcome;
}

}  // namespace

DistributedResult train_distributed(const Hamiltonian& hamiltonian,
                                    const AutoregressiveModel& prototype,
                                    const DistributedConfig& config,
                                    const DeviceCostModel& device) {
  validate_config(config);
  const std::size_t num_ranks = std::size_t(config.shape.total());
  std::vector<RankOutcome> outcomes(num_ranks);
  GroupOptions group_options;
  group_options.timeout_seconds = config.comm_timeout_seconds;
  run_thread_group(
      int(num_ranks),
      [&](Communicator& endpoint) {
        outcomes[std::size_t(endpoint.rank())] =
            run_rank(hamiltonian, prototype, config, endpoint, {});
      },
      group_options);

  // Cross-rank assembly. The global fields come from the final reporter —
  // the lowest rank alive at the end — whose view equals every other
  // survivor's; per-rank tallies come from each rank's own outcome, so
  // ranks that died mid-run still report theirs.
  DistributedResult result;
  for (RankOutcome& outcome : outcomes)
    if (outcome.reached_end && outcome.is_final_reporter)
      result = std::move(outcome.result);
  result.energy_history.resize(std::size_t(config.iterations), Real(0));
  result.guard_trips_per_rank.resize(num_ranks);
  result.allreduce_wait_seconds_per_rank.resize(num_ranks);
  result.max_rank_busy_seconds = 0;
  for (std::size_t r = 0; r < num_ranks; ++r) {
    result.guard_trips_per_rank[r] = outcomes[r].my_bad_contributions;
    result.allreduce_wait_seconds_per_rank[r] =
        outcomes[r].my_allreduce_wait_seconds;
    result.max_rank_busy_seconds =
        std::max(result.max_rank_busy_seconds, outcomes[r].my_busy_seconds);
  }
  result.modeled_seconds = modeled_run_seconds(config, prototype, device,
                                               hamiltonian.num_spins());
  return result;
}

DistributedResult train_distributed_on(
    const Hamiltonian& hamiltonian, const AutoregressiveModel& prototype,
    const DistributedConfig& config, Communicator& comm,
    const DeviceCostModel& device,
    const std::function<void(long long)>& iteration_hook) {
  validate_config(config);
  VQMC_REQUIRE(config.shape.total() == comm.size(),
               "distributed: cluster shape (" +
                   std::to_string(config.shape.total()) +
                   " ranks) does not match the communicator world (" +
                   std::to_string(comm.size()) + ")");
  DistributedResult result =
      run_rank(hamiltonian, prototype, config, comm, iteration_hook).result;
  result.modeled_seconds = modeled_run_seconds(config, prototype, device,
                                               hamiltonian.num_spins());
  return result;
}

}  // namespace vqmc::parallel
