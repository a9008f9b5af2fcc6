#pragma once

/// \file common.hpp
/// \brief Shared pieces of the repository benchmark: run options, the
/// report a workload pass returns, statistics, trace analysis, the
/// Optimizer and Communicator decorators of the traced run, and layer
/// probes.
///
/// The benchmark calls only the library's stable public entry points (the
/// factories, VqmcTrainer::step, the model/sampler/optimizer/Hamiltonian/
/// Communicator virtuals, the distributed drivers, the inference engine
/// and snapshots, and telemetry), never kernels or internal engines, so a
/// change to the program never has to edit the benchmark to keep it
/// compiling.

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "optim/optimizer.hpp"
#include "parallel/communicator.hpp"
#include "telemetry/tracer.hpp"

namespace vqmc_bench {

/// Command-line options of one benchmark invocation.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;      ///< measured time of an untraced run
  bool smoke = false;       ///< tiny sizes and fixed work (the ctest)
  std::string trace_path;   ///< non-empty: traced run, Chrome trace here
  std::string scratch_dir = ".";  ///< socket files of the socket group
};

/// What one pass of a workload does. A traced pass replays exactly the
/// work of the untraced pass before it (same seed, same iteration count),
/// so the two must end with bit-identical parameters.
struct PassPlan {
  double seconds = 0;         ///< time box of the measured phase
  bool traced = false;        ///< tracer and decorators on
  long long iterations = 0;   ///< > 0: run exactly this many timed iterations
  int setup_repeats = 1;      ///< setups timed (median reported)
};

struct Metric {
  std::string name;
  double value = 0;
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// Everything one pass of a workload measured and checked.
struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<Check> checks;
  std::uint64_t attempted = 0;   ///< operations (iterations or requests)
  std::uint64_t failed = 0;
  std::uint64_t params_fnv = 0;  ///< FNV-1a of the final parameters
  long long iterations = 0;      ///< timed iterations (replayed when traced)
  /// Median calibrated seconds per unit of the workload's main work (an
  /// iteration, or a drained row); the traced/untraced ratio is the
  /// tracing overhead.
  double seconds_per_unit = 0;

  void e2e(const std::string& name, double value) {
    end_to_end.push_back({name, value});
  }
  void layer(const std::string& name, double value) {
    per_layer.push_back({name, value});
  }
  void check(const std::string& name, bool ok, const std::string& detail = "") {
    checks.push_back({name, ok, detail});
  }
  [[nodiscard]] bool all_ok() const;
};

/// Metric names and units, in report order. Every workload reports every
/// metric of a list; a per-layer metric of a layer the workload does not
/// run reads 0.
struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec>& end_to_end_metrics();
const std::vector<MetricSpec>& per_layer_metrics();

// -- Statistics -------------------------------------------------------------

/// Linear-interpolated quantile (p in [0, 1]) of unsorted values; +inf
/// entries (failed requests) sort last. 0 for an empty sample.
double quantile(std::vector<double> values, double p);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);


/// Median calibrated microseconds (reference.hpp) of one call of `fn`,
/// repeated until at least `min_seconds` and `min_reps` calls have run.
double probe_us(const std::function<void()>& fn, double min_seconds = 0.15,
                int min_reps = 3);

double now_s();
double peak_rss_mb();
std::uint64_t fnv_of(const std::vector<double>& values);

// -- Traced run ---------------------------------------------------------------

/// Start collecting spans (rings large enough that a pass drops nothing).
void start_tracer();

/// Least share of the `iteration` spans their phase spans must cover.
/// Smoke iterations take well under a millisecond, so a thread descheduled
/// once between two phases (as under a parallel test run) can leave more
/// than 5% uncovered.
inline double required_coverage(const Options& options) {
  return options.smoke ? 0.5 : 0.95;
}

/// Per span name: calls, total and self microseconds. Self time is the
/// duration minus the time the span's direct children on the same thread
/// cover.
struct SpanSummary {
  std::string name;
  std::uint64_t calls = 0;
  double total_us = 0;
  double self_us = 0;
};
std::vector<SpanSummary> summarize_spans(
    const std::vector<vqmc::telemetry::TraceEvent>& events);

/// Share of the time of spans named `parent` covered by their direct
/// children on the same thread (0 when no such span was recorded).
double child_coverage(const std::vector<vqmc::telemetry::TraceEvent>& events,
                      const std::string& parent);

/// Total microseconds of spans named `name` that fall inside [begin, end).
double span_us_within(const std::vector<vqmc::telemetry::TraceEvent>& events,
                      const std::string& name, double begin_us, double end_us);

double span_total_us(const std::vector<vqmc::telemetry::TraceEvent>& events,
                     const std::string& name);

/// Write the Chrome trace to `path` and the span table to `path`.spans.tsv.
void write_trace_files(const std::string& path,
                       const std::vector<vqmc::telemetry::TraceEvent>& events);

/// Optimizer decorator of the traced run: a span and a wall-clock sample
/// around every step; everything else forwards.
class TimedOptimizer final : public vqmc::Optimizer {
 public:
  explicit TimedOptimizer(vqmc::Optimizer& inner) : inner_(inner) {}
  void step(std::span<vqmc::Real> params,
            std::span<const vqmc::Real> grad) override;
  void reset() override { inner_.reset(); }
  [[nodiscard]] vqmc::Real learning_rate() const override {
    return inner_.learning_rate();
  }
  void set_learning_rate(vqmc::Real lr) override {
    inner_.set_learning_rate(lr);
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] std::vector<vqmc::Real> serialize_state() const override {
    return inner_.serialize_state();
  }
  void restore_state(const std::vector<vqmc::Real>& state) override {
    inner_.restore_state(state);
  }
  [[nodiscard]] const std::vector<double>& step_us() const { return step_us_; }

 private:
  vqmc::Optimizer& inner_;
  std::vector<double> step_us_;
};

/// Communicator decorator of the traced run: counts collectives and bytes
/// and times every allreduce (wait included); everything else forwards.
class CountingCommunicator final : public vqmc::parallel::Communicator {
 public:
  using Communicator::allreduce_max;
  using Communicator::allreduce_sum;

  explicit CountingCommunicator(vqmc::parallel::Communicator& inner)
      : inner_(inner) {}
  [[nodiscard]] int rank() const override { return inner_.rank(); }
  [[nodiscard]] int size() const override { return inner_.size(); }
  void allreduce_sum(std::span<vqmc::Real> data) override;
  void allreduce_max(std::span<vqmc::Real> data) override;
  void broadcast(std::span<vqmc::Real> data, int root) override;
  void barrier() override;
  [[nodiscard]] int live_count() const override { return inner_.live_count(); }
  [[nodiscard]] bool is_alive(int r) const override {
    return inner_.is_alive(r);
  }
  void leave() override { inner_.leave(); }
  void interruptible_sleep(double seconds) override {
    inner_.interruptible_sleep(seconds);
  }

  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
  std::vector<double> allreduce_us;

 private:
  vqmc::parallel::Communicator& inner_;
};

// -- Workloads ----------------------------------------------------------------

/// Serial training: "tim_made", "tim_rbm" or "maxcut_sr".
Report run_serial_training(const Options& options, const PassPlan& plan);
/// "dist4_chain": 4 socket-connected ranks on the uniform TFIM chain.
Report run_dist4_chain(const Options& options, const PassPlan& plan);
/// "serve_n1000": sample, log-psi and local-energy traffic, one engine.
Report run_serve_n1000(const Options& options, const PassPlan& plan);

}  // namespace vqmc_bench
