/// \file bench_serve_throughput.cpp
/// \brief Serving throughput vs micro-batching policy (DESIGN.md §5e).
///
/// Closed-loop clients hammer one InferenceEngine with single-row requests
/// while the batching policy sweeps from "no coalescing" (budget 1, window
/// 0 — every request is its own batch) to progressively wider
/// `max_batch_rows x max_wait_us` windows.  Since the masked compute plan
/// landed (DESIGN.md §5f), snapshots read their frozen weights in place —
/// the old ~1.9 ms-per-call materialization at n = 1000 is gone — so
/// coalescing now amortizes only the remaining per-request fixed costs
/// (queue handoff, future wakeup, batch assembly, per-batch dispatch).
/// The sweep measures how much that is still worth end to end.
///
/// Emits BENCH_serve.json with per-config throughput and client-observed
/// latency percentiles, plus the headline micro-batching gain
/// (best tuned config vs the no-coalescing baseline).
///
/// A second section exercises the fleet scheduler (DESIGN.md §5j): two
/// named models served by one worker pool under three closed-loop tenants
/// — an interactive lane, a steady batch lane and a quota-capped "greedy"
/// batch tenant.  Exit criteria: the interactive lane's p99 must not
/// exceed the steady batch lane's p99 (the 7:1 weighted pickup at work),
/// the greedy tenant must see ServeQuotaError rejections, and per-model
/// accounting must stay exact (submitted == completed + failed per model
/// and in total).

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "nn/made.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "serve/errors.hpp"
#include "serve/inference_engine.hpp"
#include "telemetry/telemetry.hpp"

using namespace vqmc;

namespace {

struct SweepPoint {
  std::size_t max_batch_rows;
  double max_wait_us;
};

struct RunResult {
  SweepPoint point{};
  std::uint64_t responses = 0;
  std::uint64_t batches = 0;
  std::uint64_t max_batch_rows = 0;  ///< high-water batch occupancy
  double seconds = 0;
  double rps = 0;
  double p50_ms = 0, p95_ms = 0, p99_ms = 0;

  [[nodiscard]] double mean_batch_rows() const {
    return batches == 0 ? 0 : double(responses) / double(batches);
  }
};

double percentile_of_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double rank = p * double(sorted.size() - 1);
  const std::size_t lo = std::size_t(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - double(lo);
  return sorted[lo] * (1 - frac) + sorted[hi] * frac;
}

/// Drive one engine configuration with `clients` closed-loop threads for
/// `seconds`; every request is `rows` rows of the given kind.
RunResult run_point(const Made& model, bool sample_kind,
                    const SweepPoint& point, std::size_t workers,
                    std::size_t clients, std::size_t rows, double seconds) {
  serve::ServeConfig config;
  config.workers = workers;
  config.max_batch_rows = point.max_batch_rows;
  config.max_wait_us = point.max_wait_us;
  config.max_pending_rows =
      std::max<std::size_t>(4096, clients * rows * 4);
  serve::InferenceEngine engine(config);
  engine.publish_model(model);

  // One shared pool of evaluation configurations (clients reuse them; the
  // engine copies what it needs).
  const std::size_t n = model.num_spins();
  Matrix pool(64, n);
  rng::Xoshiro256 gen(12345);
  for (std::size_t i = 0; i < pool.size(); ++i)
    pool.data()[i] = rng::bernoulli(gen, 0.5) ? 1 : 0;

  std::vector<std::vector<double>> latencies_us(clients);
  const double start_us = telemetry::now_us();
  const double deadline_us = start_us + seconds * 1e6;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<double>& latencies = latencies_us[c];
      Matrix configs(rows, n);
      std::uint64_t r = 0;
      while (telemetry::now_us() < deadline_us) {
        const double t0 = telemetry::now_us();
        if (sample_kind) {
          (void)engine.submit_sample(rows, 1000 * (c + 1) + r).get();
        } else {
          for (std::size_t k = 0; k < rows; ++k) {
            const auto src = pool.row((c + r + k) % pool.rows());
            std::copy(src.begin(), src.end(), configs.row(k).begin());
          }
          (void)engine.submit_log_psi(configs).get();
        }
        latencies.push_back(telemetry::now_us() - t0);
        ++r;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  engine.drain();
  const double elapsed_s = (telemetry::now_us() - start_us) * 1e-6;

  std::vector<double> all;
  for (const auto& latencies : latencies_us)
    all.insert(all.end(), latencies.begin(), latencies.end());
  std::sort(all.begin(), all.end());

  const serve::EngineCounters counters = engine.counters();
  RunResult result;
  result.point = point;
  result.responses = counters.completed;
  result.batches = counters.batches;
  result.max_batch_rows = counters.max_batch_rows;
  result.seconds = elapsed_s;
  result.rps = double(counters.completed) / elapsed_s;
  result.p50_ms = percentile_of_sorted(all, 0.50) * 1e-3;
  result.p95_ms = percentile_of_sorted(all, 0.95) * 1e-3;
  result.p99_ms = percentile_of_sorted(all, 0.99) * 1e-3;
  return result;
}

struct TenantSpec {
  const char* name;
  serve::Priority priority;
  std::size_t clients;
  std::size_t rows;  ///< rows per request
};

struct TenantResult {
  std::string name;
  const char* lane = "";
  std::uint64_t responses = 0;
  std::uint64_t quota_rejected = 0;
  double p50_ms = 0, p99_ms = 0;
};

struct FleetResult {
  std::vector<TenantResult> tenants;
  std::vector<std::pair<std::string, serve::ModelCounters>> models;
  serve::EngineCounters counters{};
  double interactive_p99_ms = 0;
  double steady_batch_p99_ms = 0;
  bool lane_slo_met = false;     ///< interactive p99 <= steady batch p99
  bool quota_enforced = false;   ///< greedy saw ServeQuotaError rejections
  bool accounting_exact = false; ///< per-model and global books balance
};

/// Two models on one worker pool, three closed-loop tenants: "alice"
/// (interactive, 1-row), "steady" (batch, 4-row) and "greedy" (batch,
/// 4-row, quota-capped).  Every client alternates models per request so
/// both chains stay hot; greedy backs off briefly on each rejection so
/// the loop measures quota policy, not spin throughput.
FleetResult run_fleet(const Made& model, std::size_t workers,
                      double seconds) {
  serve::ServeConfig config;
  config.workers = workers;
  config.max_batch_rows = 32;
  config.max_wait_us = 1000;
  config.max_pending_rows = 4096;
  // ~50-row burst then 200 rows/s: far below what a closed loop pushes.
  config.tenant_quotas["greedy"] = serve::TenantQuota{200, 50};
  serve::InferenceEngine engine(config);
  engine.publish_model("m0", model);
  engine.publish_model("m1", model);

  const std::vector<TenantSpec> specs = {
      {"alice", serve::Priority::kInteractive, 8, 1},
      {"steady", serve::Priority::kBatch, 8, 4},
      {"greedy", serve::Priority::kBatch, 4, 4},
  };

  std::vector<std::vector<std::vector<double>>> latencies_us(specs.size());
  const double start_us = telemetry::now_us();
  const double deadline_us = start_us + seconds * 1e6;
  std::vector<std::thread> threads;
  for (std::size_t s = 0; s < specs.size(); ++s) {
    const TenantSpec& spec = specs[s];
    latencies_us[s].resize(spec.clients);
    for (std::size_t c = 0; c < spec.clients; ++c) {
      threads.emplace_back([&, s, c] {
        const TenantSpec& tenant = specs[s];
        std::vector<double>& latencies = latencies_us[s][c];
        serve::RequestOptions options;
        options.tenant = tenant.name;
        options.priority = tenant.priority;
        std::uint64_t r = 0;
        while (telemetry::now_us() < deadline_us) {
          options.model = (r % 2 == 0) ? "m0" : "m1";
          const double t0 = telemetry::now_us();
          try {
            (void)engine
                .submit_sample(tenant.rows, 1000 * (100 * s + c + 1) + r,
                               options)
                .get();
            latencies.push_back(telemetry::now_us() - t0);
          } catch (const serve::ServeQuotaError&) {
            std::this_thread::sleep_for(std::chrono::microseconds(500));
          } catch (const serve::ServeOverloadError&) {
            std::this_thread::sleep_for(std::chrono::microseconds(500));
          }
          ++r;
        }
      });
    }
  }
  for (auto& thread : threads) thread.join();
  engine.drain();

  FleetResult fleet;
  fleet.counters = engine.counters();
  fleet.models = engine.model_counters();
  const auto tenant_counters = engine.tenant_counters();
  for (std::size_t s = 0; s < specs.size(); ++s) {
    TenantResult tenant;
    tenant.name = specs[s].name;
    tenant.lane = serve::priority_name(specs[s].priority);
    std::vector<double> all;
    for (const auto& latencies : latencies_us[s])
      all.insert(all.end(), latencies.begin(), latencies.end());
    std::sort(all.begin(), all.end());
    tenant.responses = all.size();
    tenant.p50_ms = percentile_of_sorted(all, 0.50) * 1e-3;
    tenant.p99_ms = percentile_of_sorted(all, 0.99) * 1e-3;
    for (const auto& [name, counters] : tenant_counters)
      if (name == tenant.name) tenant.quota_rejected = counters.quota_rejected;
    if (tenant.name == "alice") fleet.interactive_p99_ms = tenant.p99_ms;
    if (tenant.name == "steady") fleet.steady_batch_p99_ms = tenant.p99_ms;
    if (tenant.name == "greedy")
      fleet.quota_enforced = tenant.quota_rejected > 0;
    fleet.tenants.push_back(std::move(tenant));
  }
  fleet.lane_slo_met = fleet.interactive_p99_ms <= fleet.steady_batch_p99_ms;

  fleet.accounting_exact =
      fleet.counters.submitted ==
      fleet.counters.completed + fleet.counters.failed;
  std::uint64_t model_submitted = 0;
  for (const auto& [name, counters] : fleet.models) {
    if (counters.submitted != counters.completed + counters.failed)
      fleet.accounting_exact = false;
    model_submitted += counters.submitted;
  }
  if (model_submitted != fleet.counters.submitted)
    fleet.accounting_exact = false;
  return fleet;
}

void append_result_json(std::ostringstream& json, const RunResult& result,
                        double gain) {
  json << "      {\"max_batch_rows\": " << result.point.max_batch_rows
       << ", \"max_wait_us\": " << result.point.max_wait_us
       << ", \"responses\": " << result.responses
       << ", \"seconds\": " << result.seconds
       << ", \"throughput_rps\": " << result.rps
       << ", \"mean_batch_rows\": " << result.mean_batch_rows()
       << ", \"max_batch_rows_seen\": " << result.max_batch_rows
       << ", \"gain_vs_baseline\": " << gain
       << ", \"latency_ms\": {\"p50\": " << result.p50_ms
       << ", \"p95\": " << result.p95_ms << ", \"p99\": " << result.p99_ms
       << "}}";
}

}  // namespace

int main(int argc, char** argv) {
  OptionParser opts("bench_serve_throughput",
                    "serving throughput vs micro-batch policy; writes "
                    "BENCH_serve.json");
  opts.add_option("spins", "1000", "MADE input dimension");
  opts.add_option("hidden", "0", "hidden width (0 = paper default)");
  // 256 closed-loop clients keep >= 2x max_batch_rows requests in flight at
  // the widest sweep point (128), so the row budget can actually saturate;
  // the old default of 64 capped every batch at 64 rows by construction.
  opts.add_option("clients", "256", "closed-loop client threads");
  opts.add_option("rows", "1", "rows per request");
  opts.add_option("workers", "1", "engine worker threads");
  opts.add_option("seconds", "1.5", "measurement time per configuration");
  opts.add_option("out", "BENCH_serve.json", "JSON artifact path");
  opts.add_option("commit", "unknown", "commit id recorded in the artifact");
  if (!opts.parse(argc, argv)) return 0;

  const std::size_t n = std::size_t(opts.get_int("spins"));
  const std::size_t h = opts.get_int("hidden") > 0
                            ? std::size_t(opts.get_int("hidden"))
                            : made_default_hidden(n);
  const std::size_t clients = std::size_t(opts.get_int("clients"));
  const std::size_t rows = std::size_t(opts.get_int("rows"));
  const std::size_t workers = std::size_t(opts.get_int("workers"));
  const double seconds = opts.get_double("seconds");

  Made model(n, h);
  model.initialize(7);
  std::cout << "MADE n=" << n << " h=" << h << " ("
            << model.num_parameters() << " parameters); " << clients
            << " closed-loop clients x " << rows << " row(s)/request, "
            << workers << " worker(s), " << seconds << " s/config\n\n";

  const SweepPoint baseline{1, 0};
  const std::vector<SweepPoint> tuned = {
      {16, 500}, {32, 1000}, {64, 2000}, {128, 4000}};

  std::ostringstream json;
  json << "{\n  \"bench\": \"serve_throughput\",\n"
       << bench::provenance_json(opts.get_string("commit"));
  json << "  \"model\": {\"spins\": " << n << ", \"hidden\": " << h
       << ", \"parameters\": " << model.num_parameters() << "},\n";
  json << "  \"load\": {\"clients\": " << clients
       << ", \"rows_per_request\": " << rows << ", \"workers\": " << workers
       << ", \"seconds_per_config\": " << seconds << "},\n";
  json << "  \"kinds\": {\n";

  double best_gain = 0;
  double min_gain = std::numeric_limits<double>::infinity();
  const char* kind_names[] = {"sample", "log_psi"};
  // Per-kind results (baseline first, then the tuned sweep) for the
  // sample-vs-log-psi ratio section below.
  std::vector<RunResult> kind_results[2];
  for (int kind = 0; kind < 2; ++kind) {
    const bool sample_kind = kind == 0;
    std::cout << "=== kind: " << kind_names[kind] << " ===\n";
    const RunResult base =
        run_point(model, sample_kind, baseline, workers, clients, rows,
                  seconds);
    kind_results[kind].push_back(base);
    std::cout << "  batch=1 window=0      : " << format_fixed(base.rps, 1)
              << " req/s  p50 " << format_fixed(base.p50_ms, 2)
              << " ms  p99 " << format_fixed(base.p99_ms, 2) << " ms\n";

    json << "    \"" << kind_names[kind] << "\": {\n      \"baseline\":\n";
    append_result_json(json, base, 1.0);
    json << ",\n      \"tuned\": [\n";

    double kind_best = 0;
    for (std::size_t i = 0; i < tuned.size(); ++i) {
      const RunResult result = run_point(model, sample_kind, tuned[i],
                                         workers, clients, rows, seconds);
      kind_results[kind].push_back(result);
      const double gain = base.rps > 0 ? result.rps / base.rps : 0;
      kind_best = std::max(kind_best, gain);
      min_gain = std::min(min_gain, gain);
      std::cout << "  batch=" << result.point.max_batch_rows << " window="
                << result.point.max_wait_us
                << "us: " << format_fixed(result.rps, 1) << " req/s  p50 "
                << format_fixed(result.p50_ms, 2) << " ms  p99 "
                << format_fixed(result.p99_ms, 2) << " ms  (occupancy "
                << format_fixed(result.mean_batch_rows(), 1) << " rows, gain "
                << format_fixed(gain, 2) << "x)\n";
      json << "  ";
      append_result_json(json, result, gain);
      json << (i + 1 < tuned.size() ? ",\n" : "\n");
    }
    json << "      ],\n      \"best_gain\": " << kind_best << "\n    }"
         << (kind == 0 ? ",\n" : "\n");
    best_gain = std::max(best_gain, kind_best);
    std::cout << "  best micro-batching gain: "
              << format_fixed(kind_best, 2) << "x\n\n";
  }

  // Sample-vs-log-psi ratio: the batched conditional engine's target is
  // exact ancestral sampling within 1.5x of the log-psi cost at the same
  // batching policy (the ROADMAP's Table-1 sampling-cost criterion).  The
  // ratio is taken point-by-point and the gate holds if any tuned point
  // meets it — the saturated points are where the batched kernel matters.
  std::cout << "=== sample vs log_psi (same policy) ===\n";
  double best_p50_ratio = std::numeric_limits<double>::infinity();
  json << "  },\n  \"sample_vs_log_psi\": {\n    \"points\": [\n";
  for (std::size_t i = 0; i < kind_results[0].size(); ++i) {
    const RunResult& sample_result = kind_results[0][i];
    const RunResult& log_psi_result = kind_results[1][i];
    const double p50_ratio = log_psi_result.p50_ms > 0
                                 ? sample_result.p50_ms / log_psi_result.p50_ms
                                 : 0;
    const double rps_ratio = sample_result.rps > 0
                                 ? log_psi_result.rps / sample_result.rps
                                 : 0;
    if (i > 0) best_p50_ratio = std::min(best_p50_ratio, p50_ratio);
    std::cout << "  batch=" << sample_result.point.max_batch_rows
              << " window=" << sample_result.point.max_wait_us
              << "us: sample p50 " << format_fixed(sample_result.p50_ms, 2)
              << " ms vs log_psi p50 "
              << format_fixed(log_psi_result.p50_ms, 2) << " ms -> ratio "
              << format_fixed(p50_ratio, 2) << "x\n";
    json << "      {\"max_batch_rows\": " << sample_result.point.max_batch_rows
         << ", \"max_wait_us\": " << sample_result.point.max_wait_us
         << ", \"sample_p50_ms\": " << sample_result.p50_ms
         << ", \"log_psi_p50_ms\": " << log_psi_result.p50_ms
         << ", \"p50_ratio\": " << p50_ratio
         << ", \"rps_ratio\": " << rps_ratio << "}"
         << (i + 1 < kind_results[0].size() ? ",\n" : "\n");
  }
  const double target_max_ratio = 1.5;
  const bool ratio_ok = best_p50_ratio <= target_max_ratio;
  json << "    ],\n    \"best_p50_ratio\": " << best_p50_ratio
       << ",\n    \"target_max_ratio\": " << target_max_ratio
       << ",\n    \"ratio_ok\": " << (ratio_ok ? "true" : "false") << "\n";
  std::cout << "  best tuned sample/log_psi p50 ratio "
            << format_fixed(best_p50_ratio, 2) << "x (target <= "
            << format_fixed(target_max_ratio, 1) << "x: "
            << (ratio_ok ? "ACHIEVED" : "MISSED") << ")\n\n";

  // Fleet section: 2 models x 3 tenants on one pool.
  std::cout << "=== fleet: 2 models x 3 tenants ===\n";
  const FleetResult fleet = run_fleet(model, workers, seconds);
  for (const TenantResult& tenant : fleet.tenants) {
    std::cout << "  " << tenant.name << " (" << tenant.lane
              << "): " << tenant.responses << " responses  p50 "
              << format_fixed(tenant.p50_ms, 2) << " ms  p99 "
              << format_fixed(tenant.p99_ms, 2) << " ms";
    if (tenant.quota_rejected > 0)
      std::cout << "  quota-rejected " << tenant.quota_rejected;
    std::cout << "\n";
  }
  for (const auto& [name, counters] : fleet.models)
    std::cout << "  model " << name << ": " << counters.submitted
              << " submitted, " << counters.completed << " completed, "
              << counters.batches << " batches\n";
  std::cout << "  interactive p99 " << format_fixed(fleet.interactive_p99_ms, 2)
            << " ms vs steady batch p99 "
            << format_fixed(fleet.steady_batch_p99_ms, 2) << " ms -> lane SLO "
            << (fleet.lane_slo_met ? "met" : "MISSED") << "; quota "
            << (fleet.quota_enforced ? "enforced" : "NOT ENFORCED")
            << "; accounting "
            << (fleet.accounting_exact ? "exact" : "BROKEN") << "\n\n";

  json << "  },\n  \"fleet\": {\n    \"tenants\": [\n";
  for (std::size_t t = 0; t < fleet.tenants.size(); ++t) {
    const TenantResult& tenant = fleet.tenants[t];
    json << "      {\"tenant\": \"" << tenant.name << "\", \"lane\": \""
         << tenant.lane << "\", \"responses\": " << tenant.responses
         << ", \"quota_rejected\": " << tenant.quota_rejected
         << ", \"latency_ms\": {\"p50\": " << tenant.p50_ms
         << ", \"p99\": " << tenant.p99_ms << "}}"
         << (t + 1 < fleet.tenants.size() ? ",\n" : "\n");
  }
  json << "    ],\n    \"models\": [\n";
  for (std::size_t m = 0; m < fleet.models.size(); ++m) {
    const auto& [name, counters] = fleet.models[m];
    json << "      {\"model\": \"" << name
         << "\", \"submitted\": " << counters.submitted
         << ", \"completed\": " << counters.completed
         << ", \"failed\": " << counters.failed
         << ", \"batches\": " << counters.batches
         << ", \"version\": " << counters.version << "}"
         << (m + 1 < fleet.models.size() ? ",\n" : "\n");
  }
  json << "    ],\n    \"interactive_p99_ms\": " << fleet.interactive_p99_ms
       << ",\n    \"steady_batch_p99_ms\": " << fleet.steady_batch_p99_ms
       << ",\n    \"lane_slo_met\": "
       << (fleet.lane_slo_met ? "true" : "false")
       << ",\n    \"quota_enforced\": "
       << (fleet.quota_enforced ? "true" : "false")
       << ",\n    \"accounting_exact\": "
       << (fleet.accounting_exact ? "true" : "false") << "\n  }";

  // Exit criteria: (1) micro-batching must be monotone-safe — no point of
  // the sweep may fall below the no-coalescing baseline (the adaptive
  // window close exists precisely so a wide window cannot hurt under
  // closed-loop load; the historical 3x bar assumed per-call weight
  // materialization, which the masked plan removed — best gain is still
  // reported for regression tracking); (2) exact sampling must land within
  // 1.5x of log-psi p50 at some tuned point (the batched conditional
  // engine's target); (3) the fleet run must hold the interactive-lane
  // SLO, enforce the greedy tenant's quota and keep per-model accounting
  // exact.
  const double target_gain = 1.0;
  const bool fleet_ok =
      fleet.lane_slo_met && fleet.quota_enforced && fleet.accounting_exact;
  const bool achieved = min_gain >= target_gain && ratio_ok && fleet_ok;
  json << ",\n  \"gain\": " << best_gain
       << ",\n  \"min_gain\": " << min_gain
       << ",\n  \"target_min_gain\": " << target_gain
       << ",\n  \"sample_vs_log_psi_ratio_ok\": " << (ratio_ok ? "true" : "false")
       << ",\n  \"fleet_ok\": " << (fleet_ok ? "true" : "false")
       << ",\n  \"achieved\": " << (achieved ? "true" : "false") << "\n}\n";

  const std::string out = opts.get_string("out");
  std::ofstream file(out);
  file << json.str();
  std::cout << "micro-batching gain: best " << format_fixed(best_gain, 2)
            << "x, min across sweep " << format_fixed(min_gain, 2)
            << "x (monotone-safe target: every point >= "
            << format_fixed(target_gain, 1)
            << "x: " << (min_gain >= target_gain ? "ACHIEVED" : "MISSED")
            << "); fleet criteria " << (fleet_ok ? "ACHIEVED" : "MISSED")
            << "; wrote " << out << "\n";
  return achieved ? 0 : 1;
}
