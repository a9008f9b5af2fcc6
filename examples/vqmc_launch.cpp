/// \file vqmc_launch.cpp
/// \brief Multi-process launcher: fork N real ranks, rendezvous them over a
/// socket group, train data-parallel, and (optionally) execute a scripted
/// process fault matrix against them (DESIGN.md §5h).
///
///   # 4-process smoke run over a Unix-domain socket group
///   ./build/examples/vqmc_launch --ranks 4 --n 16 --iterations 20
///
///   # real process death: rank 2 raises SIGKILL at iteration 10; the
///   # survivors detect the EOF, shrink deterministically and finish
///   ./build/examples/vqmc_launch --ranks 4 --faults "kill:rank=2,iter=10"
///
///   # kill-then-resume bit-identity: kill every rank at iteration 15, then
///   # resume from the iteration-10 snapshots and compare params_fnv lines
///   ./build/examples/vqmc_launch --ranks 2 --checkpoint-base /tmp/ck
///       --checkpoint-every 10 --faults "kill:rank=0,iter=15;kill:rank=1,iter=15"
///   ./build/examples/vqmc_launch --ranks 2 --checkpoint-base /tmp/ck --resume
///
/// Each child prints one summary line with a FNV-1a checksum of its final
/// parameters (`params_fnv=0x...`); two runs reaching the same final state
/// print identical checksums, which is what the CI bit-identity jobs grep.
/// The parent prints a per-rank fate table and exits non-zero when any
/// rank's fate differs from what the fault plan predicts.

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/options.hpp"
#include "common/table.hpp"
#include "core/checkpoint.hpp"
#include "hamiltonian/transverse_field_ising.hpp"
#include "nn/made.hpp"
#include "obs/exposition.hpp"
#include "parallel/distributed_trainer.hpp"
#include "parallel/process_faults.hpp"
#include "parallel/socket_communicator.hpp"
#include "telemetry/flight_recorder.hpp"

namespace {

using namespace vqmc;
using namespace vqmc::parallel;

// Child exit codes the parent's expectation table understands.
constexpr int kExitOk = 0;          // completed (or left gracefully)
constexpr int kExitError = 2;       // unexpected vqmc::Error
constexpr int kExitAborted = 3;     // group abort / collective deadline

std::vector<std::string> split_specs(const std::string& text) {
  std::vector<std::string> specs;
  std::string current;
  std::istringstream in(text);
  while (std::getline(in, current, ';'))
    if (!current.empty()) specs.push_back(current);
  return specs;
}

std::string hex64(std::uint64_t value) {
  std::ostringstream out;
  out << "0x" << std::hex << value;
  return out.str();
}

struct LaunchConfig {
  int ranks = 4;
  double timeout_seconds = 10.0;
  double rendezvous_timeout_seconds = 30.0;
  PeerDeathPolicy on_peer_death = PeerDeathPolicy::kShrink;
  std::string results_dir;
  std::string crash_dir;
  int iteration_delay_ms = 0;
  DistributedConfig training;
  std::size_t n = 16;
};

/// The whole life of one worker process: env rendezvous, training,
/// summary emission. Never returns to the fork site.
[[noreturn]] void run_child(const LaunchConfig& launch) {
  try {
    // Crash evidence (DESIGN.md §5i): the flight-recorder ring dumps here
    // on fatal signal or group abort, so a SIGKILL'd neighbor's survivors
    // (and the launcher's fate table) are not the only record of the run.
    if (!launch.crash_dir.empty()) {
      telemetry::FlightRecorder::instance().set_crash_dir(launch.crash_dir);
      telemetry::FlightRecorder::install_crash_signal_handler();
    }
    SocketGroupOptions options;
    options.timeout_seconds = launch.timeout_seconds;
    options.rendezvous_timeout_seconds = launch.rendezvous_timeout_seconds;
    options.on_peer_death = launch.on_peer_death;
    std::unique_ptr<SocketCommunicator> comm =
        connect_socket_group_from_env(options);
    const int rank = comm->rank();

    // This rank's scripted faults, handed down through the environment the
    // same way the rendezvous spec is.
    ProcessFaultPlan plan;
    if (const char* spec = std::getenv("VQMC_FAULTS"); spec && *spec) {
      const std::vector<ProcessFaultPlan> plans =
          parse_process_fault_specs(split_specs(spec), comm->size());
      plan = plans[std::size_t(rank)];
    }

    // Deterministic problem construction: every rank builds the identical
    // Hamiltonian and prototype from fixed seeds, exactly like the
    // thread-backed driver's shared prototype.
    const TransverseFieldIsing hamiltonian =
        TransverseFieldIsing::random_dense(launch.n, 11);
    Made prototype = Made::with_default_hidden(launch.n);
    prototype.initialize(12);

    const DistributedResult result = train_distributed_on(
        hamiltonian, prototype, launch.training, *comm, {},
        [&](long long iteration) {
          // Optional per-iteration stretch so CI can scrape the run while
          // it is demonstrably mid-flight.
          if (launch.iteration_delay_ms > 0)
            ::usleep(useconds_t(launch.iteration_delay_ms) * 1000);
          apply_process_faults_at_iteration(plan, iteration, *comm);
        });

    const bool completed = !result.final_parameters.empty();
    const std::uint64_t params_fnv =
        completed ? fnv1a64(result.final_parameters.data(),
                            result.final_parameters.size() * sizeof(Real))
                  : 0;

    std::ostringstream line;
    line << "[rank " << rank << "] "
         << (completed ? "completed" : "left mid-run")
         << " live=" << result.final_live_ranks
         << " energy=" << result.converged_energy
         << " replicas_identical=" << (result.replicas_identical ? 1 : 0)
         << " shrinks=" << result.shrink_events.size()
         << " params_fnv=" << hex64(params_fnv) << "\n";
    // Rank 0 (the group's root — it can never leave) also reports the
    // merged socket telemetry: reconnect/backoff behavior, collective
    // latency and per-rank straggler wait — the observables DESIGN.md
    // §5d/§5h promise.
    if (completed && rank == 0) {
      const auto* retries =
          result.merged_metrics.find_counter("comm.socket.connect_retries");
      const auto* collectives =
          result.merged_metrics.find_counter("comm.socket.collectives");
      const auto* deaths =
          result.merged_metrics.find_counter("comm.socket.peer_deaths");
      const auto* latency = result.merged_metrics.find_histogram(
          "comm.socket.collective_seconds");
      line << "[rank " << rank << "] socket telemetry:"
           << " collectives=" << (collectives ? collectives->value : 0)
           << " connect_retries=" << (retries ? retries->value : 0)
           << " peer_deaths=" << (deaths ? deaths->value : 0);
      if (latency && latency->count > 0)
        line << " collective_p95_s=" << latency->p95;
      line << " allreduce_wait_s=[";
      for (std::size_t r = 0;
           r < result.allreduce_wait_seconds_per_rank.size(); ++r)
        line << (r ? " " : "") << result.allreduce_wait_seconds_per_rank[r];
      line << "]\n";
    }
    std::cout << line.str() << std::flush;

    if (!launch.results_dir.empty()) {
      std::ostringstream json;
      json << "{\"rank\":" << rank << ",\"completed\":" << (completed ? 1 : 0)
           << ",\"final_live_ranks\":" << result.final_live_ranks
           << ",\"converged_energy\":" << result.converged_energy
           << ",\"replicas_identical\":" << (result.replicas_identical ? 1 : 0)
           << ",\"shrink_events\":[";
      for (std::size_t i = 0; i < result.shrink_events.size(); ++i) {
        const ShrinkEvent& event = result.shrink_events[i];
        json << (i ? "," : "") << "{\"iteration\":" << event.iteration
             << ",\"rank\":" << event.rank
             << ",\"live_after\":" << event.live_after << "}";
      }
      json << "],\"params_fnv\":\"" << hex64(params_fnv) << "\"}\n";
      std::ofstream out(launch.results_dir + "/rank" + std::to_string(rank) +
                        ".json");
      out << json.str();
    }
    std::exit(kExitOk);
  } catch (const CommTimeoutError& e) {
    std::cerr << "[child] group aborted: " << e.what() << "\n";
    std::exit(kExitAborted);
  } catch (const std::exception& e) {
    std::cerr << "[child] error: " << e.what() << "\n";
    std::exit(kExitError);
  }
}

struct RankFate {
  pid_t pid = -1;
  bool reaped = false;
  int status = 0;
};

std::string describe_status(int status) {
  if (WIFEXITED(status)) return "exit " + std::to_string(WEXITSTATUS(status));
  if (WIFSIGNALED(status)) {
    const int sig = WTERMSIG(status);
    if (sig == SIGKILL) return "SIGKILL";
    if (sig == SIGTERM) return "SIGTERM";
    return "signal " + std::to_string(sig);
  }
  return "status " + std::to_string(status);
}

/// What the fault plan predicts for this rank. `any_kill_or_stop` widens the
/// acceptable fates of *other* ranks under the abort policy (a real death
/// turns into a group-wide CommTimeoutError for every survivor).
bool fate_matches_plan(const ProcessFaultPlan& plan, int status,
                       PeerDeathPolicy policy, bool any_kill_or_stop) {
  if (plan.kill_at_iteration >= 0)
    return WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL;
  if (WIFEXITED(status) && WEXITSTATUS(status) == kExitOk) return true;
  // A survivor may legitimately see the group abort: under the abort
  // policy any peer death does it, and a stopped peer outlasting the
  // collective deadline does it under either policy.
  const bool abort_plausible =
      (policy == PeerDeathPolicy::kAbort && any_kill_or_stop) ||
      plan.stop_at_iteration >= 0 || any_kill_or_stop;
  return abort_plausible && WIFEXITED(status) &&
         WEXITSTATUS(status) == kExitAborted;
}

}  // namespace

int main(int argc, char** argv) {
  OptionParser opts("vqmc_launch",
                    "fork N real ranks over a socket group, train "
                    "data-parallel, and execute a scripted process fault "
                    "matrix against them");
  opts.add_option("ranks", "4", "number of worker processes to fork");
  opts.add_option("n", "16", "number of spins");
  opts.add_option("iterations", "20", "training iterations");
  opts.add_option("mbs", "4", "mini-batch per rank");
  opts.add_option("seed", "13", "training seed");
  opts.add_option("timeout", "10",
                  "collective deadline in seconds (0 = wait forever)");
  opts.add_option("rendezvous-timeout", "30", "rendezvous deadline (s)");
  opts.add_option("faults", "",
                  "';'-separated process fault specs, e.g. "
                  "\"kill:rank=2,iter=10;stop:rank=1,iter=5,secs=1.5\"");
  opts.add_option("on-death", "shrink",
                  "peer-death policy: shrink (fold dead ranks out) or abort");
  opts.add_option("endpoint", "",
                  "rendezvous endpoint (unix:///path or tcp://host:port); "
                  "default: a fresh Unix socket under /tmp");
  opts.add_option("checkpoint-base", "",
                  "per-rank training snapshots under <base>.rank<r>");
  opts.add_option("checkpoint-every", "0",
                  "snapshot cadence in iterations (0 = off)");
  opts.add_flag("resume", "load <base>.rank<r> and continue bit-identically");
  opts.add_option("results-dir", "",
                  "write per-rank JSON results under this directory");
  opts.add_option("obs-endpoint", "",
                  "live status/metrics base endpoint: rank r serves "
                  "rank_endpoint(base, r); scraping the base pulls the whole "
                  "group (poll with vqmc_top)");
  opts.add_option("crash-dir", "",
                  "write flight-recorder crash reports (JSONL) here on "
                  "fatal signal or group abort");
  opts.add_option("iteration-delay-ms", "0",
                  "sleep this long at the top of every iteration (stretches "
                  "short runs so they can be scraped mid-flight)");
  if (!opts.parse(argc, argv)) return 0;

  LaunchConfig launch;
  launch.ranks = opts.get_int("ranks");
  launch.n = std::size_t(opts.get_int("n"));
  launch.timeout_seconds = opts.get_double("timeout");
  launch.rendezvous_timeout_seconds = opts.get_double("rendezvous-timeout");
  launch.results_dir = opts.get_string("results-dir");
  const std::string policy_name = opts.get_string("on-death");
  if (policy_name == "shrink") {
    launch.on_peer_death = PeerDeathPolicy::kShrink;
  } else if (policy_name == "abort") {
    launch.on_peer_death = PeerDeathPolicy::kAbort;
  } else {
    std::cerr << "unknown --on-death '" << policy_name
              << "' (expected shrink or abort)\n";
    return 1;
  }
  if (launch.ranks < 1) {
    std::cerr << "--ranks must be >= 1\n";
    return 1;
  }

  launch.training.shape = {1, launch.ranks};
  launch.training.iterations = opts.get_int("iterations");
  launch.training.mini_batch_size = std::size_t(opts.get_int("mbs"));
  launch.training.seed = std::uint64_t(opts.get_int("seed"));
  launch.training.eval_batch_per_rank = 64;
  launch.training.comm_timeout_seconds = launch.timeout_seconds;
  launch.training.checkpoint_base = opts.get_string("checkpoint-base");
  launch.training.checkpoint_every = opts.get_int("checkpoint-every");
  launch.training.resume = opts.get_flag("resume");
  launch.training.obs_endpoint = opts.get_string("obs-endpoint");
  launch.crash_dir = opts.get_string("crash-dir");
  launch.iteration_delay_ms = opts.get_int("iteration-delay-ms");

  // Validate the fault matrix up front (in the parent, where a bad spec is
  // a clean usage error instead of N confused children) and keep the parsed
  // plans for the SIGCONT scheduling and the fate table.
  std::vector<ProcessFaultPlan> plans(std::size_t(launch.ranks));
  const std::string fault_arg = opts.get_string("faults");
  try {
    if (!fault_arg.empty())
      plans = parse_process_fault_specs(split_specs(fault_arg), launch.ranks);
  } catch (const std::exception& e) {
    std::cerr << "bad --faults: " << e.what() << "\n";
    return 1;
  }
  bool any_kill_or_stop = false;
  for (const ProcessFaultPlan& plan : plans)
    any_kill_or_stop |=
        plan.kill_at_iteration >= 0 || plan.stop_at_iteration >= 0;

  std::string endpoint = opts.get_string("endpoint");
  if (endpoint.empty())
    endpoint = "unix:///tmp/vqmc_launch_" + std::to_string(::getpid()) +
               ".sock";

  // Fork the ranks. The parent is single-threaded here, so setenv in the
  // children is safe; each child sees only its own rank/fault variables.
  std::vector<RankFate> fates(std::size_t(launch.ranks));
  for (int rank = 0; rank < launch.ranks; ++rank) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::cerr << "fork failed for rank " << rank << "\n";
      for (const RankFate& fate : fates)
        if (fate.pid > 0) ::kill(fate.pid, SIGKILL);
      return 1;
    }
    if (pid == 0) {
      ::setenv("VQMC_ENDPOINT", endpoint.c_str(), 1);
      ::setenv("VQMC_RANK", std::to_string(rank).c_str(), 1);
      ::setenv("VQMC_RANKS", std::to_string(launch.ranks).c_str(), 1);
      ::setenv("VQMC_FAULTS",
               format_process_fault_spec(plans[std::size_t(rank)], rank)
                   .c_str(),
               1);
      run_child(launch);  // never returns
    }
    fates[std::size_t(rank)].pid = pid;
  }

  // Reap loop. WUNTRACED surfaces scripted SIGSTOPs: the launcher plays the
  // cluster manager and SIGCONTs the wedged rank after its scripted pause,
  // turning "stop" faults into bounded real-process hangs.
  int reaped = 0;
  while (reaped < launch.ranks) {
    int status = 0;
    const pid_t pid = ::waitpid(-1, &status, WUNTRACED);
    if (pid < 0) break;
    int rank = -1;
    for (int r = 0; r < launch.ranks; ++r)
      if (fates[std::size_t(r)].pid == pid) rank = r;
    if (rank < 0) continue;
    if (WIFSTOPPED(status)) {
      const double pause = plans[std::size_t(rank)].stop_seconds;
      std::cout << "[launch] rank " << rank << " stopped; SIGCONT in "
                << pause << "s\n";
      ::usleep(useconds_t(pause * 1e6));
      ::kill(pid, SIGCONT);
      continue;
    }
    fates[std::size_t(rank)].status = status;
    fates[std::size_t(rank)].reaped = true;
    ++reaped;
  }

  if (endpoint.rfind("unix://", 0) == 0)
    ::unlink(endpoint.substr(7).c_str());
  const std::string obs_base = launch.training.obs_endpoint;
  if (obs_base.rfind("unix://", 0) == 0) {
    for (int rank = 0; rank < launch.ranks; ++rank) {
      const std::string spec = obs::rank_endpoint(obs_base, rank);
      ::unlink(spec.substr(7).c_str());
    }
  }

  Table table("vqmc_launch fate matrix (" + std::to_string(launch.ranks) +
              " rank(s), policy " + policy_name + ")");
  table.set_header({"rank", "scripted fault", "fate", "as planned"});
  int mismatches = 0;
  for (int rank = 0; rank < launch.ranks; ++rank) {
    const ProcessFaultPlan& plan = plans[std::size_t(rank)];
    const RankFate& fate = fates[std::size_t(rank)];
    const bool ok =
        fate.reaped && fate_matches_plan(plan, fate.status,
                                         launch.on_peer_death,
                                         any_kill_or_stop);
    mismatches += ok ? 0 : 1;
    const std::string spec = format_process_fault_spec(plan, rank);
    table.add_row({std::to_string(rank), spec.empty() ? "-" : spec,
                   fate.reaped ? describe_status(fate.status) : "not reaped",
                   ok ? "yes" : "NO"});
  }
  std::cout << table.to_string();
  if (mismatches > 0) {
    std::cerr << mismatches << " rank(s) did not meet the scripted fate\n";
    return 1;
  }
  return 0;
}
