#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <limits>
#include <map>

#include "core/checkpoint.hpp"
#include "reference.hpp"
#include "telemetry/telemetry.hpp"

namespace vqmc_bench {

using vqmc::telemetry::TraceEvent;

bool Report::all_ok() const {
  return std::all_of(checks.begin(), checks.end(),
                     [](const Check& c) { return c.ok; });
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"rows_per_s", "rows/s"},
      {"latency_p50_ms", "ms"},
      {"peak_rss_mb", "MB"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"run.latency_p90_ms", "ms"},
      {"run.wall_latency_p50_ms", "ms"},
      {"host.speed", "1"},
      {"trainer.iterations", "count"},
      {"trainer.sample_ms", "ms"},
      {"trainer.local_energy_ms", "ms"},
      {"trainer.gradient_ms", "ms"},
      {"trainer.sr_ms", "ms"},
      {"trainer.allreduce_ms", "ms"},
      {"trainer.optimizer_ms", "ms"},
      {"trainer.other_ms", "ms"},
      {"sampler.forward_passes_per_iter", "count"},
      {"sampler.acceptance", "1"},
      {"sampler.nonfinite", "count"},
      {"nn.log_psi_us_per_row", "us"},
      {"nn.grad_us_per_row", "us"},
      {"nn.per_sample_grad_us_per_row", "us"},
      {"optim.step_ms", "ms"},
      {"sr.cg_iters", "count"},
      {"sr.ms_per_cg_iter", "ms"},
      {"dist.busy_ms_per_iter_max", "ms"},
      {"dist.wait_ms_per_iter_spread", "ms"},
      {"dist.allreduce_wait_share", "1"},
      {"dist.weak_eff", "1"},
      {"dist.energy_rel_err", "1"},
      {"comm.calls_per_iter", "count"},
      {"comm.bytes_per_iter", "bytes"},
      {"comm.allreduce_us_p50", "us"},
      {"serve.sample_p50_ms", "ms"},
      {"serve.sample_p90_ms", "ms"},
      {"serve.log_psi_p50_ms", "ms"},
      {"serve.log_psi_p90_ms", "ms"},
      {"serve.high_p50_ms", "ms"},
      {"serve.high_p90_ms", "ms"},
      {"serve.local_energy_p50_ms", "ms"},
      {"serve.local_energy_p90_ms", "ms"},
      {"serve.max_rps_at_slo", "req/s"},
      {"serve.generator_late_ms_max", "ms"},
      {"serve.shed", "count"},
      {"serve.mean_batch_rows", "rows"},
      {"serve.drain_mean_batch_rows", "rows"},
      {"serve.worker_busy_frac", "1"},
      {"serve.local_energy_service_ms", "ms"},
      {"snapshot.log_psi_us_per_row", "us"},
      {"snapshot.sample_us_per_row", "us"},
      {"trace.coverage", "1"},
      {"trace.dropped", "count"},
      {"trace.overhead_frac", "1"},
  };
  return specs;
}

double quantile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p * double(values.size() - 1);
  const std::size_t lo = std::size_t(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - double(lo);
  if (frac == 0 || values[lo] == values[hi]) return values[lo];
  if (std::isinf(values[hi])) return values[hi];
  return values[lo] * (1 - frac) + values[hi] * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double total = 0;
  for (double v : values) total += v;
  return total / double(values.size());
}

double probe_us(const std::function<void()>& fn, double min_seconds,
                int min_reps) {
  std::vector<double> reps;
  const double start = now_s();
  while (int(reps.size()) < min_reps || now_s() - start < min_seconds) {
    const double t0 = vqmc::telemetry::now_us();
    fn();
    const double wall_us = vqmc::telemetry::now_us() - t0;
    reps.push_back(wall_us * core_speed());
  }
  return median(std::move(reps));
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::uint64_t fnv_of(const std::vector<double>& values) {
  return vqmc::fnv1a64(values.data(), values.size() * sizeof(double));
}

void start_tracer() { vqmc::telemetry::Tracer::instance().start(1 << 17); }

namespace {

/// Events grouped per thread, in start order (parents before children).
std::map<std::uint32_t, std::vector<const TraceEvent*>> by_thread(
    const std::vector<TraceEvent>& events) {
  std::map<std::uint32_t, std::vector<const TraceEvent*>> threads;
  for (const TraceEvent& e : events) threads[e.thread_id].push_back(&e);
  return threads;
}

/// Visit every (span, summed duration of its direct children) pair.
void for_each_span_with_children(
    const std::vector<TraceEvent>& events,
    const std::function<void(const TraceEvent&, double)>& visit) {
  for (const auto& [thread, list] : by_thread(events)) {
    (void)thread;
    // Open-span stack; a span's direct children are the spans that start
    // inside it one level deeper.
    std::vector<std::pair<const TraceEvent*, double>> stack;
    const auto close_until = [&](double ts) {
      while (!stack.empty() &&
             stack.back().first->ts_us + stack.back().first->dur_us <= ts) {
        visit(*stack.back().first, stack.back().second);
        stack.pop_back();
      }
    };
    for (const TraceEvent* e : list) {
      close_until(e->ts_us);
      while (!stack.empty() && stack.back().first->depth >= e->depth) {
        visit(*stack.back().first, stack.back().second);
        stack.pop_back();
      }
      if (!stack.empty() && stack.back().first->depth + 1 == e->depth)
        stack.back().second += e->dur_us;
      stack.emplace_back(e, 0.0);
    }
    while (!stack.empty()) {
      visit(*stack.back().first, stack.back().second);
      stack.pop_back();
    }
  }
}

}  // namespace

std::vector<SpanSummary> summarize_spans(
    const std::vector<TraceEvent>& events) {
  std::map<std::string, SpanSummary> table;
  for_each_span_with_children(events, [&](const TraceEvent& e, double child) {
    SpanSummary& row = table[e.name];
    row.name = e.name;
    ++row.calls;
    row.total_us += e.dur_us;
    row.self_us += std::max(0.0, e.dur_us - child);
  });
  std::vector<SpanSummary> rows;
  for (auto& [name, row] : table) rows.push_back(row);
  std::sort(rows.begin(), rows.end(),
            [](const SpanSummary& a, const SpanSummary& b) {
              return a.self_us > b.self_us;
            });
  return rows;
}

double child_coverage(const std::vector<TraceEvent>& events,
                      const std::string& parent) {
  double total = 0, covered = 0;
  for_each_span_with_children(events, [&](const TraceEvent& e, double child) {
    if (parent != e.name) return;
    total += e.dur_us;
    covered += std::min(child, e.dur_us);
  });
  return total > 0 ? covered / total : 0;
}

double span_us_within(const std::vector<TraceEvent>& events,
                      const std::string& name, double begin_us,
                      double end_us) {
  double total = 0;
  for (const TraceEvent& e : events) {
    if (name != e.name) continue;
    const double lo = std::max(begin_us, e.ts_us);
    const double hi = std::min(end_us, e.ts_us + e.dur_us);
    if (hi > lo) total += hi - lo;
  }
  return total;
}

double span_total_us(const std::vector<TraceEvent>& events,
                     const std::string& name) {
  return span_us_within(events, name, -std::numeric_limits<double>::infinity(),
                        std::numeric_limits<double>::infinity());
}

void write_trace_files(const std::string& path,
                       const std::vector<TraceEvent>& events) {
  vqmc::telemetry::Tracer::instance().write_chrome_trace(path);
  std::ofstream table(path + ".spans.tsv");
  table << "span\tcalls\ttotal_ms\tself_ms\n" << std::fixed
        << std::setprecision(3);
  for (const SpanSummary& row : summarize_spans(events))
    table << row.name << '\t' << row.calls << '\t' << row.total_us * 1e-3
          << '\t' << row.self_us * 1e-3 << '\n';
}

void TimedOptimizer::step(std::span<vqmc::Real> params,
                          std::span<const vqmc::Real> grad) {
  const vqmc::telemetry::Span span("optim.step");
  const double t0 = vqmc::telemetry::now_us();
  inner_.step(params, grad);
  step_us_.push_back(vqmc::telemetry::now_us() - t0);
}

void CountingCommunicator::allreduce_sum(std::span<vqmc::Real> data) {
  const vqmc::telemetry::Span span("comm.allreduce_sum");
  const double t0 = vqmc::telemetry::now_us();
  inner_.allreduce_sum(data);
  allreduce_us.push_back(vqmc::telemetry::now_us() - t0);
  ++calls;
  bytes += data.size_bytes();
}

void CountingCommunicator::allreduce_max(std::span<vqmc::Real> data) {
  const vqmc::telemetry::Span span("comm.allreduce_max");
  const double t0 = vqmc::telemetry::now_us();
  inner_.allreduce_max(data);
  allreduce_us.push_back(vqmc::telemetry::now_us() - t0);
  ++calls;
  bytes += data.size_bytes();
}

void CountingCommunicator::broadcast(std::span<vqmc::Real> data, int root) {
  const vqmc::telemetry::Span span("comm.broadcast");
  inner_.broadcast(data, root);
  ++calls;
  bytes += data.size_bytes();
}

void CountingCommunicator::barrier() {
  const vqmc::telemetry::Span span("comm.barrier");
  inner_.barrier();
  ++calls;
}

}  // namespace vqmc_bench
