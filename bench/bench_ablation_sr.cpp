/// \file bench_ablation_sr.cpp
/// \brief Stochastic reconfiguration: the regularization sweep and the cost
/// of the sample-space solve (DESIGN.md §5m).
///
/// Part 1, the lambda sweep (the paper fixes 1e-3 without one).  Expected
/// shape: a broad sweet spot around lambda ~ 1e-3..1e-2 (too small ->
/// ill-conditioned natural gradient, too large -> SR degenerates to plain
/// SGD).
///
/// Part 2, timing.  For MADE at (n, bs) = (64, 128) (the maxcut_sr shape),
/// (128, 256) and (20, 1024) (Table 2's first size at the paper's batch),
/// and for RBM at (64, 128), it times the model's Gram from its layer
/// factors against the default Gram (the explicit bs x d per-sample matrix
/// through gemm_nt, called as WavefunctionModel::log_psi_gradient_gram), in
/// alternating blocks of the same run, and the whole SR phase a training
/// step runs: Gram, sample-space solve, and the natural gradient's
/// gradient pass.  Writes BENCH_sr.json; exits nonzero when the two Grams
/// differ by more than 1e-12 relative (max norm) or when the factor Gram is
/// slower than the default at the maxcut_sr shape.
///
///   ./build/bench/bench_ablation_sr --commit $(git rev-parse --short HEAD)

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "bench_common.hpp"
#include "nn/made.hpp"
#include "nn/rbm.hpp"
#include "optim/sgd.hpp"
#include "optim/stochastic_reconfiguration.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "tensor/kernels.hpp"
#include "tensor/simd.hpp"

using namespace vqmc;
using namespace vqmc::bench;

namespace {

Real final_energy(const TransverseFieldIsing& tim, Real lambda, int iterations,
                  std::size_t batch, std::uint64_t seed) {
  Made made = Made::with_default_hidden(tim.num_spins());
  made.initialize(seed);
  const auto sampler = make_sampler("AUTO", made, seed + 1);
  Sgd sgd(0.1);
  TrainerConfig cfg;
  cfg.iterations = iterations;
  cfg.batch_size = batch;
  cfg.use_sr = true;
  cfg.sr.regularization = lambda;
  VqmcTrainer trainer(tim, made, *sampler, sgd, cfg);
  trainer.run();
  return trainer.evaluate(512).mean;
}

struct TimingShape {
  const char* model;
  std::size_t spins;
  std::size_t rows;
};

constexpr TimingShape kShapes[] = {
    {"MADE", 64, 128}, {"MADE", 128, 256}, {"MADE", 20, 1024}, {"RBM", 64, 128}};
constexpr std::size_t kGateSpins = 64;  ///< MADE at the maxcut_sr shape
constexpr std::size_t kGateRows = 128;
constexpr Real kGramParityBound = 1e-12;

struct TimingResult {
  TimingShape shape{};
  std::size_t hidden = 0;
  std::size_t params = 0;
  double factor_ms = 0;
  double default_ms = 0;
  double ratio = 0;  ///< median of paired default / factor
  double solve_ms = 0;
  double phase_ms = 0;
  double max_rel_diff = 0;
  bool parity_ok = false;
};

TimingResult time_shape(const TimingShape& shape, double block_seconds,
                        int repeats) {
  const std::size_t n = shape.spins, bs = shape.rows;
  std::unique_ptr<WavefunctionModel> model;
  std::size_t hidden = 0;
  if (std::string(shape.model) == "MADE") {
    hidden = made_default_hidden(n);
    model = std::make_unique<Made>(n, hidden);
  } else {
    hidden = n;  // the paper's RBM width
    model = std::make_unique<Rbm>(n, hidden);
  }
  model->initialize(1000 + n);
  rng::Xoshiro256 gen(2000 + n + bs);
  Matrix batch(bs, n);
  for (std::size_t i = 0; i < batch.size(); ++i)
    batch.data()[i] = rng::bernoulli(gen, 0.5) ? 1 : 0;
  Vector coeff(bs);
  for (std::size_t k = 0; k < bs; ++k) coeff[k] = rng::uniform(gen, -1.0, 1.0);
  const Real shift = mean(coeff.span());
  for (std::size_t k = 0; k < bs; ++k) coeff[k] -= shift;

  const auto ws = model->make_workspace();
  Matrix factor(bs, bs), reference(bs, bs), gram(bs, bs);
  Vector y(bs), natural(model->num_parameters());
  const StochasticReconfiguration sr;

  TimingResult r;
  r.shape = shape;
  r.hidden = hidden;
  r.params = model->num_parameters();
  const auto factor_gram = [&] {
    model->log_psi_gradient_gram(batch, factor, ws.get());
  };
  const auto default_gram = [&] {
    model->WavefunctionModel::log_psi_gradient_gram(batch, reference, ws.get());
  };
  const auto solve = [&] {
    std::copy_n(factor.data(), factor.size(), gram.data());
    sr.solve(gram, coeff.span(), y.span());
  };
  const auto phase = [&] {
    model->log_psi_gradient_gram(batch, gram, ws.get());
    sr.solve(gram, coeff.span(), y.span());
    natural.fill(0);
    model->accumulate_log_psi_gradient_ws(batch, y.span(), natural.span(),
                                          ws.get());
  };

  factor_gram();
  Timer probe;
  default_gram();
  const double probe_s = std::max(probe.seconds(), 1e-6);
  Real diff = 0, scale = 0;
  for (std::size_t i = 0; i < factor.size(); ++i) {
    diff = std::max(diff, std::abs(factor.data()[i] - reference.data()[i]));
    scale = std::max(scale, std::abs(reference.data()[i]));
  }
  r.max_rel_diff = double(diff / scale);
  r.parity_ok = r.max_rel_diff <= kGramParityBound;

  // Calibrate calls per block off the slower (default) Gram, and alternate
  // the two Grams' blocks so host-speed drift hits both alike.
  const std::size_t calls =
      std::max<std::size_t>(2, std::size_t(block_seconds / probe_s));
  std::vector<double> factor_ms, default_ms, ratios, solve_ms, phase_ms;
  for (int rep = 0; rep < repeats; ++rep) {
    factor_ms.push_back(block_ms(factor_gram, calls));
    default_ms.push_back(block_ms(default_gram, calls));
    ratios.push_back(default_ms.back() / factor_ms.back());
    solve_ms.push_back(block_ms(solve, calls));
    phase_ms.push_back(block_ms(phase, calls));
  }
  r.factor_ms = median(factor_ms);
  r.default_ms = median(default_ms);
  r.ratio = median(ratios);
  r.solve_ms = median(solve_ms);
  r.phase_ms = median(phase_ms);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  OptionParser opts("bench_ablation_sr",
                    "SR: regularization sweep, then Gram and solve timing; "
                    "writes BENCH_sr.json");
  add_scale_options(opts);
  opts.add_option("repeats", "5", "timed blocks per path (median reported)");
  opts.add_option("seconds", "0.5", "target measurement time per block");
  opts.add_option("commit", "unknown", "commit id recorded in the artifact");
  opts.add_option("out", "BENCH_sr.json", "JSON artifact path");
  bool ok = false;
  Scale scale = parse_scale(opts, argc, argv, ok);
  if (!ok) return 0;
  if (!opts.get_flag("full")) {
    if (opts.get_string("dims").empty()) scale.dims = {20, 40};
    if (opts.get_int("iterations") <= 0) scale.iterations = 50;
    if (opts.get_int("batch") <= 0) scale.batch_size = 96;
  }
  print_scale_banner("Ablation: stochastic reconfiguration", scale,
                     opts.get_flag("full"));

  // --- Lambda sweep ---------------------------------------------------------
  const std::vector<Real> lambdas = {1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0};
  Table sweep("Converged TIM energy vs SR regularization lambda "
              "(SGD 0.1, lower is better; paper uses lambda = 1e-3)");
  std::vector<std::string> header = {"n"};
  for (Real l : lambdas) header.push_back("l=" + format_fixed(l, 5));
  header.push_back("no SR");
  sweep.set_header(header);

  for (int n : scale.dims) {
    const TransverseFieldIsing tim =
        TransverseFieldIsing::random_dense(std::size_t(n), 7000 + std::size_t(n));
    std::vector<std::string> row = {std::to_string(n)};
    for (Real lambda : lambdas) {
      row.push_back(format_fixed(
          final_energy(tim, lambda, scale.iterations, scale.batch_size, 1), 2));
    }
    // Plain SGD reference.
    Made made = Made::with_default_hidden(std::size_t(n));
    made.initialize(1);
    const auto sampler = make_sampler("AUTO", made, 2);
    Sgd sgd(0.1);
    TrainerConfig cfg;
    cfg.iterations = scale.iterations;
    cfg.batch_size = scale.batch_size;
    VqmcTrainer trainer(tim, made, *sampler, sgd, cfg);
    trainer.run();
    row.push_back(format_fixed(trainer.evaluate(512).mean, 2));
    sweep.add_row(row);
    std::cout << "done: lambda sweep n=" << n << "\n";
  }
  std::cout << "\n" << sweep.to_string() << "\n";
  std::cout << "Shape check: sweet spot around 1e-3..1e-2; very large lambda "
               "approaches the no-SR column.\n\n";

  // --- Gram and solve timing ------------------------------------------------
  const int repeats = opts.get_int("repeats");
  const double block_seconds = opts.get_double("seconds");
  const char* simd_level = simd::level_name(simd::active_level());
#ifdef _OPENMP
  const int threads = omp_get_max_threads();
#else
  const int threads = 1;
#endif
  std::cout << "SR Gram and solve, " << threads << " thread(s), simd level "
            << simd_level << ", median of " << repeats << " blocks\n\n";
  std::vector<TimingResult> results;
  for (const TimingShape& shape : kShapes)
    results.push_back(time_shape(shape, block_seconds, repeats));

  Table table("Per-call milliseconds: layer-factor Gram vs explicit-O Gram, "
              "the solve, and the SR phase (Gram + solve + gradient pass)");
  table.set_header({"model", "n", "h", "d", "bs", "factor Gram", "O Gram",
                    "O/factor", "solve", "SR phase", "max rel diff"});
  bool parity_ok = true;
  bool gate_ok = true;
  for (const TimingResult& r : results) {
    table.add_row({r.shape.model, std::to_string(r.shape.spins),
                   std::to_string(r.hidden), std::to_string(r.params),
                   std::to_string(r.shape.rows), format_fixed(r.factor_ms, 3),
                   format_fixed(r.default_ms, 3), format_fixed(r.ratio, 2),
                   format_fixed(r.solve_ms, 3), format_fixed(r.phase_ms, 3),
                   scientific(r.max_rel_diff)});
    parity_ok &= r.parity_ok;
    if (std::string(r.shape.model) == "MADE" && r.shape.spins == kGateSpins &&
        r.shape.rows == kGateRows)
      gate_ok &= r.ratio >= 1.0;
  }
  std::cout << table.to_string();

  std::ostringstream json;
  json << "{\n  \"bench\": \"sr\",\n"
       << provenance_json(opts.get_string("commit"))
       << "  \"regularization\": " << SrConfig{}.regularization << ",\n"
       << "  \"parity_bound\": " << kGramParityBound << ",\n"
       << "  \"cases\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const TimingResult& r = results[i];
    json << "    {\"model\": \"" << r.shape.model
         << "\", \"spins\": " << r.shape.spins << ", \"hidden\": " << r.hidden
         << ", \"params\": " << r.params << ", \"rows\": " << r.shape.rows
         << ", \"factor_gram_ms_per_call\": " << r.factor_ms
         << ", \"default_gram_ms_per_call\": " << r.default_ms
         << ", \"speedup_factor_over_default\": " << r.ratio
         << ", \"solve_ms_per_call\": " << r.solve_ms
         << ", \"sr_phase_ms_per_call\": " << r.phase_ms
         << ", \"max_rel_gram_disagreement\": " << r.max_rel_diff
         << ", \"parity_ok\": " << (r.parity_ok ? "true" : "false") << "}"
         << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"gate\": \"MADE spins " << kGateSpins << " rows "
       << kGateRows << "\",\n  \"factor_not_slower_at_gate\": "
       << (gate_ok ? "true" : "false")
       << ",\n  \"parity_ok\": " << (parity_ok ? "true" : "false") << "\n}\n";
  const std::string out_path = opts.get_string("out");
  std::ofstream(out_path) << json.str();
  std::cout << "\nwrote " << out_path << "\n";

  if (!parity_ok) {
    std::cerr << "FAIL: factor and explicit-O Grams disagree beyond "
              << kGramParityBound << "\n";
    return 1;
  }
  if (!gate_ok) {
    std::cerr << "FAIL: factor Gram slower than the explicit-O Gram at MADE n = "
              << kGateSpins << ", bs = " << kGateRows << "\n";
    return 1;
  }
  return 0;
}
