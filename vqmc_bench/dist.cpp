/// \file dist.cpp
/// \brief dist4_chain: the paper's data-parallel scheme, 4 ranks as threads
/// of one socket group (flat star, the real wire protocol over Unix
/// sockets), training MADE on the uniform periodic TFIM chain, whose
/// Jordan-Wigner ground energy is exact.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>

#include "common.hpp"
#include "reference.hpp"
#include "core/factory.hpp"
#include "hamiltonian/transverse_field_ising.hpp"
#include "parallel/distributed_trainer.hpp"
#include "parallel/socket_communicator.hpp"

namespace vqmc_bench {

namespace {

using vqmc::telemetry::now_us;

struct DistSpec {
  std::size_t n = 128;
  std::size_t mbs = 32;        ///< samples per rank per iteration
  int ranks = 4;
  int warmup = 5;
  long long min_iterations = 50;   ///< floor of the time-boxed count
  long long weak_iterations = 40;  ///< timed iterations of the 1-rank run
  long long smoke_iterations = 0;  ///< fixed timed count at --smoke scale
  double energy_gate = 0.15;       ///< max relative energy error
};

DistSpec dist_spec(bool smoke) {
  DistSpec spec;
  if (smoke) {
    spec.n = 16;
    spec.mbs = 8;
    spec.warmup = 2;
    spec.weak_iterations = 4;
    spec.smoke_iterations = 40;
    spec.energy_gate = 0.5;
  }
  return spec;
}

/// Iterations after the warm-up that a trial launch times.
constexpr long long kTrialIterations = 8;

/// Reference-loop blocks every rank runs at the top of every iteration:
/// about 2% of a 4-rank iteration.
constexpr int kRankSpeedBlocks = 8;

/// One launch of a socket group (or a single self-communicating rank).
struct GroupRun {
  double start_us = 0;              ///< before instance and prototype
  double end_us = 0;                ///< after every rank returned
  std::vector<double> hook_us;      ///< rank 0: start of every iteration
  /// Per rank, per iteration: the core's speed at the top of the iteration.
  std::vector<std::vector<double>> speeds;
  vqmc::parallel::DistributedResult result;  ///< rank 0's view
  std::vector<std::unique_ptr<CountingCommunicator>> counters;  ///< traced
};

GroupRun run_group(const Options& options, const DistSpec& spec, int ranks,
                   long long iterations, bool traced) {
  GroupRun run;
  run.hook_us.reserve(std::size_t(iterations));
  run.speeds.resize(std::size_t(ranks));
  for (auto& s : run.speeds) s.reserve(std::size_t(iterations));
  run.counters.resize(std::size_t(ranks));
  run.start_us = now_us();
  const auto hamiltonian = vqmc::TransverseFieldIsing::uniform_chain(
      spec.n, 1.0, 1.0, /*periodic=*/true);
  const auto model = vqmc::make_model("MADE", spec.n, 0, options.seed);
  const auto& prototype =
      dynamic_cast<const vqmc::AutoregressiveModel&>(*model);

  vqmc::parallel::DistributedConfig config;
  config.shape.nodes = 1;
  config.shape.gpus_per_node = ranks;
  config.iterations = int(iterations);
  config.mini_batch_size = spec.mbs;
  config.optimizer = "ADAM";
  config.seed = options.seed;
  config.comm_timeout_seconds = 60;  // a hung rank fails the run, not the clock

  std::mutex mutex;
  const auto body = [&](vqmc::parallel::Communicator& endpoint) {
    std::unique_ptr<CountingCommunicator> counting;
    vqmc::parallel::Communicator* comm = &endpoint;
    if (traced) {
      counting = std::make_unique<CountingCommunicator>(endpoint);
      comm = counting.get();
    }
    const int rank = endpoint.rank();
    const auto hook = [&run, rank](long long) {
      if (rank == 0) run.hook_us.push_back(now_us());
      run.speeds[std::size_t(rank)].push_back(core_speed(kRankSpeedBlocks));
    };
    vqmc::parallel::DistributedResult result =
        vqmc::parallel::train_distributed_on(hamiltonian, prototype, config,
                                             *comm, {}, hook);
    const std::lock_guard<std::mutex> lock(mutex);
    if (rank == 0) run.result = std::move(result);
    run.counters[std::size_t(rank)] = std::move(counting);
  };

  if (ranks == 1) {
    vqmc::parallel::SelfCommunicator self;
    body(self);
  } else {
    static std::atomic<int> group{0};
    const std::string path = options.scratch_dir + "/vqmc_bench_" +
                             std::to_string(::getpid()) + "_" +
                             std::to_string(group++) + ".sock";
    vqmc::parallel::SocketGroupOptions socket_options;
    socket_options.timeout_seconds = 60;
    try {
      vqmc::parallel::run_socket_group(ranks, body, socket_options,
                                       "unix://" + path);
    } catch (...) {
      std::filesystem::remove(path);
      throw;
    }
    std::filesystem::remove(path);
  }
  run.end_us = now_us();
  if (run.hook_us.size() != std::size_t(iterations))
    throw std::runtime_error(
        "rank 0 ran " + std::to_string(run.hook_us.size()) + " of " +
        std::to_string(iterations) + " iterations");
  return run;
}

/// Mean speed of the ranks' cores over iterations [first, first + count);
/// a rank that left the group early contributes the iterations it ran.
double mean_speed(const GroupRun& run, long long first, long long count) {
  double total = 0, samples = 0;
  for (const auto& rank : run.speeds) {
    const auto end = std::min(std::size_t(first + count), rank.size());
    for (auto k = std::size_t(first); k < end; ++k, ++samples) total += rank[k];
  }
  return samples > 0 ? total / samples : 1;
}

/// Microseconds of iterations [first, first + count) from rank 0's
/// iteration-start hooks: wall times, or calibrated by the ranks' mean
/// speed in each iteration.
std::vector<double> intervals(const GroupRun& run, long long first,
                              long long count, bool calibrated = true) {
  std::vector<double> out;
  for (long long k = first; k < first + count; ++k) {
    const double wall =
        run.hook_us[std::size_t(k + 1)] - run.hook_us[std::size_t(k)];
    out.push_back(calibrated ? wall * mean_speed(run, k, 1) : wall);
  }
  return out;
}

/// Calibrated set-up: launch until the first timed iteration starts.
double setup_seconds(const GroupRun& run, int warmup) {
  return (run.hook_us[std::size_t(warmup)] - run.start_us) * 1e-6 *
         mean_speed(run, 0, warmup);
}

double histogram_mean_ms(const vqmc::telemetry::MetricsSnapshot& snap,
                         const char* name) {
  const auto* h = snap.find_histogram(name);
  return h != nullptr ? h->mean() * 1e3 : 0;
}

double counter(const vqmc::telemetry::MetricsSnapshot& snap, const char* name) {
  const auto* c = snap.find_counter(name);
  return c != nullptr ? double(c->value) : 0;
}

}  // namespace

Report run_dist4_chain(const Options& options, const PassPlan& plan) {
  const DistSpec spec = dist_spec(options.smoke);
  const int w = spec.warmup;
  Report report;

  // Set-up = instance, prototype, rendezvous and warm-up: launch until the
  // first timed iteration starts. Short trial launches time it and
  // estimate how many iterations fill the time box (from their last
  // iterations; the first few after a rendezvous run slow).
  std::vector<double> setup_s;
  std::vector<double> trial_iter_us;
  long long timed = plan.iterations;
  if (timed <= 0 && options.smoke) timed = spec.smoke_iterations;
  const int trials = timed > 0 ? plan.setup_repeats - 1
                               : std::max(1, plan.setup_repeats - 1);
  for (int t = 0; t < trials; ++t) {
    const GroupRun trial =
        run_group(options, spec, spec.ranks, w + kTrialIterations + 1, false);
    setup_s.push_back(setup_seconds(trial, w));
    for (double v : intervals(trial, w, kTrialIterations, false))
      trial_iter_us.push_back(v);
  }
  if (timed <= 0) {
    timed = std::max(spec.min_iterations,
                     (long long)std::llround(plan.seconds * 1e6 /
                                             median(trial_iter_us)));
  }

  const long long total = w + timed + 1;
  if (plan.traced) start_tracer();
  const GroupRun run = run_group(options, spec, spec.ranks, total, plan.traced);
  if (plan.traced) vqmc::telemetry::Tracer::instance().stop();
  setup_s.push_back(setup_seconds(run, w));

  const vqmc::parallel::DistributedResult& result = run.result;
  const std::vector<double> iter_us = intervals(run, w, timed);
  double timed_us = 0;
  for (double us : iter_us) timed_us += us;
  const double exact = vqmc::tfim_chain_ground_energy(spec.n, 1.0, 1.0);
  const double rel_err =
      std::abs(double(result.converged_energy) - exact) / std::abs(exact);
  const auto& metrics = result.merged_metrics;
  const double nonfinite = counter(metrics, "sampler.nonfinite_rejections");
  std::uint64_t bad_iterations = 0;
  for (vqmc::Real e : result.energy_history)
    bad_iterations += std::isfinite(double(e)) ? 0 : 1;

  report.iterations = timed;
  report.attempted = std::uint64_t(total);
  report.failed = std::max<std::uint64_t>(bad_iterations, result.guard_trips);
  report.params_fnv = fnv_of(std::vector<double>(
      result.final_parameters.begin(), result.final_parameters.end()));
  report.seconds_per_unit = median(iter_us) * 1e-6;

  report.check("dist.replicas_identical", result.replicas_identical);
  report.check("dist.all_ranks_live", result.final_live_ranks == spec.ranks,
               std::to_string(result.final_live_ranks) + " live");
  report.check("training.no_guard_trips", result.guard_trips == 0);
  report.check("training.finite_energies", bad_iterations == 0);
  report.check("sampler.nonfinite_zero", nonfinite == 0);
  report.check("dist.energy_rel_err_le_gate", rel_err <= spec.energy_gate,
               "relative error " + std::to_string(rel_err) + " vs exact " +
                   std::to_string(exact));

  report.e2e("setup_s", median(setup_s));
  report.e2e("rows_per_s", double(spec.ranks) * double(spec.mbs) *
                               double(timed) / (timed_us * 1e-6));
  report.e2e("latency_p50_ms", quantile(iter_us, 0.5) * 1e-3);
  report.e2e("peak_rss_mb", peak_rss_mb());

  if (!plan.traced) return report;

  const auto events = vqmc::telemetry::Tracer::instance().events();
  // Rank-side times are calibrated by the ranks' mean speed over the run.
  const double speed = mean_speed(run, 0, total);
  const auto phase_ms = [&](const char* name) {
    return histogram_mean_ms(metrics, name) * speed;
  };
  const double sample_ms = phase_ms("phase.sample_seconds");
  const double le_ms = phase_ms("phase.local_energy_seconds");
  const double grad_ms = phase_ms("phase.gradient_seconds");
  const double allreduce_ms = phase_ms("phase.allreduce_seconds");
  const double opt_ms = phase_ms("phase.optimizer_seconds");
  const double rank_iterations = double(spec.ranks) * double(total);
  report.layer("run.latency_p90_ms", quantile(iter_us, 0.9) * 1e-3);
  report.layer("run.wall_latency_p50_ms",
               median(intervals(run, w, timed, false)) * 1e-3);
  report.layer("host.speed", speed);
  report.layer("trainer.iterations", double(timed));
  report.layer("trainer.sample_ms", sample_ms);
  report.layer("trainer.local_energy_ms", le_ms);
  report.layer("trainer.gradient_ms", grad_ms);
  report.layer("trainer.allreduce_ms", allreduce_ms);
  report.layer("trainer.optimizer_ms", opt_ms);
  // The phase histograms cover every iteration, warm-up included.
  report.layer("trainer.other_ms",
               mean(intervals(run, 0, total - 1)) * 1e-3 - sample_ms - le_ms -
                   grad_ms - allreduce_ms - opt_ms);
  report.layer("sampler.forward_passes_per_iter",
               counter(metrics, "sampler.auto.forward_passes") /
                   rank_iterations);
  report.layer("sampler.nonfinite", nonfinite);
  report.layer("optim.step_ms", opt_ms);

  const auto& waits = result.allreduce_wait_seconds_per_rank;
  const auto [min_wait, max_wait] =
      std::minmax_element(waits.begin(), waits.end());
  double wait_total = 0;
  for (double v : waits) wait_total += v;
  report.layer("dist.busy_ms_per_iter_max",
               result.max_rank_busy_seconds * speed * 1e3 / double(total));
  report.layer("dist.wait_ms_per_iter_spread",
               (*max_wait - *min_wait) * speed * 1e3 / double(total));
  report.layer("dist.allreduce_wait_share",
               wait_total / double(spec.ranks) /
                   ((run.end_us - run.hook_us.front()) * 1e-6));
  report.layer("dist.energy_rel_err", rel_err);

  const CountingCommunicator& root_comm = *run.counters.front();
  std::vector<double> allreduce_us;
  for (const auto& c : run.counters)
    allreduce_us.insert(allreduce_us.end(), c->allreduce_us.begin(),
                        c->allreduce_us.end());
  report.layer("comm.calls_per_iter", double(root_comm.calls) / double(total));
  report.layer("comm.bytes_per_iter", double(root_comm.bytes) / double(total));
  report.layer("comm.allreduce_us_p50", median(allreduce_us) * speed);

  const double coverage = child_coverage(events, "iteration");
  report.layer("trace.coverage", coverage);
  report.check("trace.iteration_coverage",
               coverage >= required_coverage(options));

  // Weak scaling: the same per-rank load on one self-communicating rank,
  // against the 4-rank median of this pass.
  const GroupRun single =
      run_group(options, spec, 1, w + spec.weak_iterations + 1, false);
  report.layer("dist.weak_eff",
               median(intervals(single, w, spec.weak_iterations)) /
                   median(iter_us));
  return report;
}

}  // namespace vqmc_bench
