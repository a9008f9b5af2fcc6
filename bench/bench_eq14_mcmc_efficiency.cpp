/// \file bench_eq14_mcmc_efficiency.cpp
/// \brief Reproduces the Eq. 14 analysis: the parallel speedup of MCMC
/// sampling is affine in the device count L with a slope that decays toward
/// zero as the (inherently sequential) burn-in grows, while AUTO's speedup
/// is exactly L.
///
/// Then measures what one of those sequential steps costs.  One 256-row
/// draw at n = h = 128 (the paper's burn-in 3n + 100, 2 chains) runs twice
/// on the same RBM: through the RBM's chain walk (theta kept per chain, a
/// proposal scored in O(h), DESIGN.md §5n) and through the default walk (a
/// forwarding wrapper hides the RBM's, so every MH step is one batched
/// log_psi over the 2 proposals).  The two draws' timed blocks alternate,
/// and the reported speedup is the median of the paired ratios
/// forward-step / walk, so host-speed drift cancels.  Both samplers' forward-pass
/// counters must match Eq. 14's k + j * bs / c accounting.
///
/// Writes BENCH_mcmc.json; exits nonzero when a forward-pass count differs
/// from the accounting or when the walk is less than kGateSpeedup times
/// the forward step.
///
///   OMP_NUM_THREADS=1 ./build/bench/bench_eq14_mcmc_efficiency --commit
///   $(git rev-parse --short HEAD)

#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "bench_common.hpp"
#include "nn/rbm.hpp"
#include "sampler/diagnostics.hpp"
#include "sampler/metropolis_sampler.hpp"
#include "tensor/simd.hpp"

using namespace vqmc;
using namespace vqmc::bench;

namespace {

constexpr std::size_t kSpins = 128;
constexpr std::size_t kRows = 256;
constexpr std::size_t kChains = 2;
/// The RBM walk must beat the forward step by this in-run factor.
constexpr double kGateSpeedup = 5.0;

struct DrawTiming {
  double walk_ms = 0;
  double forward_ms = 0;
  double ratio = 0;  ///< median of paired forward / walk blocks
  double walk_acceptance = 0;
  double forward_acceptance = 0;
  std::uint64_t walk_passes = 0;     ///< forward passes of one draw
  std::uint64_t forward_passes = 0;  ///< forward passes of one draw
};

/// One draw's forward passes: the counter's growth over one sample() call.
std::uint64_t passes_of_one_draw(MetropolisSampler& sampler, Matrix& out) {
  const std::uint64_t before = sampler.statistics().forward_passes;
  sampler.sample(out);
  return sampler.statistics().forward_passes - before;
}

DrawTiming time_draws(double block_seconds, int repeats) {
  Rbm rbm(kSpins, kSpins);
  rbm.initialize(1);
  FullForwardModel forward_model(rbm);
  MetropolisConfig cfg;
  cfg.num_chains = kChains;
  cfg.burn_in = paper_burn_in(kSpins);
  cfg.seed = 2;
  MetropolisSampler walk(rbm, cfg);
  MetropolisSampler forward(forward_model, cfg);
  Matrix out(kRows, kSpins);

  DrawTiming t;
  t.walk_passes = passes_of_one_draw(walk, out);
  t.forward_passes = passes_of_one_draw(forward, out);
  // Calibrate draws per timed block off one forward-step draw.
  Timer probe;
  forward.sample(out);
  const double probe_s = std::max(probe.seconds(), 1e-6);
  const std::size_t calls =
      std::max<std::size_t>(2, std::size_t(block_seconds / probe_s));
  std::vector<double> walk_ms, forward_ms, ratios;
  for (int rep = 0; rep < repeats; ++rep) {
    walk_ms.push_back(block_ms([&] { walk.sample(out); }, calls));
    forward_ms.push_back(block_ms([&] { forward.sample(out); }, calls));
    ratios.push_back(forward_ms.back() / walk_ms.back());
  }
  t.walk_ms = median(walk_ms);
  t.forward_ms = median(forward_ms);
  t.ratio = median(ratios);
  t.walk_acceptance = walk.statistics().acceptance_rate();
  t.forward_acceptance = forward.statistics().acceptance_rate();
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  OptionParser opts("bench_eq14_mcmc_efficiency",
                    "Eq. 14: analytical MCMC parallel efficiency, and one "
                    "MCMC draw through the RBM's chain walk vs one forward "
                    "per MH step; writes BENCH_mcmc.json");
  opts.add_option("samples-per-unit", "100", "n in Eq. 14");
  opts.add_option("thinning", "1", "j in Eq. 14");
  opts.add_option("repeats", "7", "timed blocks per walk (median reported)");
  opts.add_option("seconds", "0.3", "target measurement time per block");
  opts.add_option("commit", "unknown", "commit id recorded in the artifact");
  if (!opts.parse(argc, argv)) return 0;
  const std::size_t per_unit = std::size_t(opts.get_int("samples-per-unit"));
  const std::size_t thinning = std::size_t(opts.get_int("thinning"));

  std::cout << "== Eq. 14: MCMC sampling speedup a + bL ==\n\n";
  Table table("Speedup of L units (n=" + std::to_string(per_unit) +
              " kept samples/unit, j=" + std::to_string(thinning) + ")");
  std::vector<std::string> header = {"burn-in k"};
  const std::vector<std::size_t> units = {1, 2, 4, 8, 16, 24};
  for (std::size_t L : units) header.push_back("L=" + std::to_string(L));
  header.push_back("slope b");
  table.set_header(header);

  for (std::size_t k : {std::size_t(0), std::size_t(100), std::size_t(1000),
                        std::size_t(10000)}) {
    std::vector<std::string> row = {std::to_string(k)};
    for (std::size_t L : units)
      row.push_back(format_fixed(mcmc_parallel_speedup(k, thinning, per_unit, L), 2));
    const Real slope = mcmc_parallel_speedup(k, thinning, per_unit, 2) -
                       mcmc_parallel_speedup(k, thinning, per_unit, 1);
    row.push_back(format_fixed(slope, 3));
    table.add_row(row);
  }
  std::cout << table.to_string() << "\n";

  std::vector<std::string> auto_row = {"AUTO (any k)"};
  for (std::size_t L : units)
    auto_row.push_back(format_fixed(auto_parallel_speedup(L), 2));
  std::cout << "AUTO speedup (exact sampling, no burn-in):";
  for (const std::string& s : auto_row) std::cout << " " << s;
  std::cout << "\n\n";

  // Empirical cross-check: the sampler's forward-pass counter matches the
  // k + j * (bs / c) accounting that Eq. 14 is built on.
  const std::size_t n = 50, bs = 100, chains = 2, burn = paper_burn_in(n);
  Rbm rbm(n, n);
  MetropolisConfig cfg;
  cfg.num_chains = chains;
  cfg.burn_in = burn;
  cfg.thinning = thinning;
  MetropolisSampler sampler(rbm, cfg);
  Matrix batch(bs, n);
  sampler.sample(batch);
  const std::uint64_t expected = 1 + burn + thinning * (bs / chains);
  bool accounting_ok = sampler.statistics().forward_passes == expected;
  std::cout << "Empirical check: MetropolisSampler used "
            << sampler.statistics().forward_passes
            << " forward passes for one batch; Eq. 14 accounting predicts "
            << expected << " (1 restart + k + j*bs/c).\n";
  std::cout << (accounting_ok ? "MATCH\n" : "MISMATCH\n");

  // The cost of one sequential step: the paper's RBM draw, 1 thread.
#ifdef _OPENMP
  omp_set_num_threads(1);
#endif
  const DrawTiming t =
      time_draws(opts.get_double("seconds"), opts.get_int("repeats"));
  const std::uint64_t draw_expected =
      1 + paper_burn_in(kSpins) + (kRows + kChains - 1) / kChains;
  const bool draw_accounting_ok =
      t.walk_passes == draw_expected && t.forward_passes == draw_expected;
  accounting_ok &= draw_accounting_ok;
  const bool gate_ok = t.ratio >= kGateSpeedup;
  std::cout << "\nOne " << kRows << "-row RBM draw, n = h = " << kSpins
            << ", " << kChains << " chains, burn-in " << paper_burn_in(kSpins)
            << ", 1 thread, simd level "
            << simd::level_name(simd::active_level()) << ":\n"
            << "  chain walk    " << format_fixed(t.walk_ms, 3)
            << " ms per draw, acceptance "
            << format_fixed(t.walk_acceptance, 3) << ", " << t.walk_passes
            << " forward passes\n"
            << "  forward step  " << format_fixed(t.forward_ms, 3)
            << " ms per draw, acceptance "
            << format_fixed(t.forward_acceptance, 3) << ", "
            << t.forward_passes << " forward passes\n"
            << "  forward step / walk " << format_fixed(t.ratio, 2)
            << " (median of paired blocks; gate " << kGateSpeedup << ")\n";

  std::ostringstream json;
  json << "{\n  \"bench\": \"mcmc\",\n"
       << provenance_json(opts.get_string("commit"))
       << "  \"model\": \"RBM\",\n"
       << "  \"spins\": " << kSpins << ",\n  \"hidden\": " << kSpins
       << ",\n  \"rows\": " << kRows << ",\n  \"chains\": " << kChains
       << ",\n  \"burn_in\": " << paper_burn_in(kSpins)
       << ",\n  \"walk_ms_per_draw\": " << t.walk_ms
       << ",\n  \"forward_step_ms_per_draw\": " << t.forward_ms
       << ",\n  \"speedup_walk_over_forward_step\": " << t.ratio
       << ",\n  \"walk_acceptance\": " << t.walk_acceptance
       << ",\n  \"forward_step_acceptance\": " << t.forward_acceptance
       << ",\n  \"forward_passes_per_draw\": " << t.walk_passes
       << ",\n  \"forward_step_forward_passes_per_draw\": " << t.forward_passes
       << ",\n  \"eq14_forward_passes_per_draw\": " << draw_expected
       << ",\n  \"accounting_ok\": " << (accounting_ok ? "true" : "false")
       << ",\n  \"gate_speedup\": " << kGateSpeedup
       << ",\n  \"gate_ok\": " << (gate_ok ? "true" : "false") << "\n}\n";
  std::ofstream("BENCH_mcmc.json") << json.str();
  std::cout << "\nwrote BENCH_mcmc.json\n";

  if (!accounting_ok) {
    std::cerr << "FAIL: forward passes differ from Eq. 14's accounting\n";
    return 1;
  }
  if (!gate_ok) {
    std::cerr << "FAIL: the chain walk is less than " << kGateSpeedup
              << "x the forward step\n";
    return 1;
  }
  return 0;
}
