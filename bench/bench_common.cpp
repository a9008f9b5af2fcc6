#include "bench_common.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "telemetry/metrics_registry.hpp"
#include "tensor/simd.hpp"

#ifndef VQMC_BUILD_TYPE
#define VQMC_BUILD_TYPE "unknown"
#endif

namespace vqmc::bench {

void add_scale_options(OptionParser& opts) {
  opts.add_flag("full", "run the paper-scale parameters (hours of CPU time)");
  opts.add_option("dims", "", "override problem sizes, e.g. 20,50,100");
  opts.add_option("iterations", "0", "override training iterations");
  opts.add_option("batch", "0", "override training batch size");
  opts.add_option("seeds", "0", "override number of random seeds");
}

Scale parse_scale(OptionParser& opts, int argc, const char* const* argv,
                  bool& ok) {
  ok = opts.parse(argc, argv);
  Scale scale = opts.get_flag("full") ? paper_scale() : quick_scale();
  if (!ok) return scale;
  if (!opts.get_string("dims").empty()) scale.dims = opts.get_int_list("dims");
  if (opts.get_int("iterations") > 0)
    scale.iterations = opts.get_int("iterations");
  if (opts.get_int("batch") > 0)
    scale.batch_size = std::size_t(opts.get_int("batch"));
  if (opts.get_int("seeds") > 0) scale.seeds = opts.get_int("seeds");
  return scale;
}

void print_scale_banner(const std::string& artifact, const Scale& scale,
                        bool full) {
  std::cout << "== " << artifact << " ==\n";
  std::cout << (full ? "scale: FULL (paper parameters)"
                     : "scale: QUICK (single-core defaults; --full for paper "
                       "parameters)")
            << "\n";
  std::cout << "dims:";
  for (int n : scale.dims) std::cout << " " << n;
  std::cout << " | iterations: " << scale.iterations
            << " | batch: " << scale.batch_size << " | seeds: " << scale.seeds
            << "\n\n";
}

ComboResult run_combo(const Hamiltonian& hamiltonian,
                      const std::string& model_kind,
                      const std::string& sampler_kind,
                      const std::string& optimizer_kind, const Scale& scale,
                      std::uint64_t seed, std::size_t hidden,
                      MetropolisConfig mcmc) {
  const std::size_t n = hamiltonian.num_spins();
  auto model = make_model(model_kind, n, hidden, seed);
  auto sampler = make_sampler(sampler_kind, *model, seed * 7919 + 13, mcmc);
  auto optimizer = make_optimizer(optimizer_kind);

  TrainerConfig cfg;
  cfg.iterations = scale.iterations;
  cfg.batch_size = scale.batch_size;
  cfg.use_sr = optimizer_label_uses_sr(optimizer_kind);
  VqmcTrainer trainer(hamiltonian, *model, *sampler, *optimizer, cfg);
  telemetry::Counter& rows = telemetry::metrics().counter("local_energy.rows");
  telemetry::Counter& distinct =
      telemetry::metrics().counter("local_energy.distinct_rows");
  const std::uint64_t rows_before = rows.value();
  const std::uint64_t distinct_before = distinct.value();
  trainer.run();

  ComboResult result;
  result.local_energy_rows = rows.value() - rows_before;
  result.local_energy_distinct_rows = distinct.value() - distinct_before;
  result.history = trainer.history();
  result.train_seconds = trainer.training_seconds();
  for (const IterationMetrics& m : result.history)
    result.phase_totals += m.phases;

  Matrix samples;
  const EnergyEstimate est =
      trainer.evaluate_with_samples(scale.eval_batch, samples);
  result.eval_energy = est.mean;
  result.eval_std = est.std_dev;

  if (const auto* maxcut = dynamic_cast<const MaxCut*>(&hamiltonian)) {
    result.mean_cut = maxcut->cut_from_energy(est.mean);
    for (std::size_t k = 0; k < samples.rows(); ++k)
      result.best_cut =
          std::max(result.best_cut, maxcut->cut_value(samples.row(k)));
  }
  return result;
}

std::string format_phase_breakdown(const PhaseBreakdown& phases) {
  const double total = phases.total();
  if (total <= 0) return "";
  std::string out;
  for (const Phase& phase : kPhases) {
    const double share = phases.*phase.member / total;
    if (share < 0.005) continue;
    if (!out.empty()) out += " | ";
    out += phase.name;
    out += ' ';
    out += std::to_string(int(std::lround(share * 100)));
    out += '%';
  }
  return out;
}

std::string phases_to_json(const PhaseBreakdown& phases) {
  std::ostringstream json;
  json << '{';
  const char* sep = "";
  for (const Phase& phase : kPhases) {
    json << sep << '"' << phase.name << "\": " << phases.*phase.member;
    sep = ", ";
  }
  json << '}';
  return json.str();
}

std::pair<Real, Real> mean_std(const std::vector<Real>& values) {
  if (values.empty()) return {0, 0};
  Real mean = 0;
  for (Real v : values) mean += v;
  mean /= Real(values.size());
  if (values.size() == 1) return {mean, 0};
  Real var = 0;
  for (Real v : values) var += (v - mean) * (v - mean);
  var /= Real(values.size() - 1);
  return {mean, std::sqrt(var)};
}

double block_ms(const std::function<void()>& fn, std::size_t calls) {
  Timer timer;
  for (std::size_t c = 0; c < calls; ++c) fn();
  return timer.milliseconds() / double(calls);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

namespace {

/// The host CPU's model name from /proc/cpuinfo, or "unknown".
std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// The compiler that built the benches, e.g. "gcc 12.2.0".
std::string compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

/// `text` as a JSON string literal.
std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

std::string provenance_json(const std::string& commit) {
#ifdef _OPENMP
  const int threads = omp_get_max_threads();
#else
  const int threads = 1;
#endif
  std::ostringstream json;
  json << "  \"commit\": " << quoted(commit) << ",\n"
       << "  \"cpu_model\": " << quoted(cpu_model()) << ",\n"
       << "  \"simd_level\": "
       << quoted(simd::level_name(simd::active_level())) << ",\n"
       << "  \"threads\": " << threads << ",\n"
       << "  \"compiler\": " << quoted(compiler()) << ",\n"
       << "  \"build_type\": " << quoted(VQMC_BUILD_TYPE) << ",\n";
  return json.str();
}

std::string scientific(double value) {
  std::ostringstream out;
  out.precision(2);
  out << std::scientific << value;
  return out.str();
}

}  // namespace vqmc::bench
