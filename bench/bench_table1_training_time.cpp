/// \file bench_table1_training_time.cpp
/// \brief Reproduces Table 1: training-time comparison of RBM&MCMC vs
/// MADE&AUTO on the TIM problem (300 iterations, one device).
///
/// Expected shape (paper): MADE&AUTO is faster by an order of magnitude at
/// every size, and both columns grow with n — MADE roughly linearly in its
/// sampling dimension, RBM&MCMC with the burn-in length k = 3n + 100.
///
/// The JSON artifact records, per measured n, both columns' total seconds,
/// their seven-phase split (sample, local_energy, gradient, sr, allreduce,
/// optimizer, checkpoint) and the share of their training rows that the
/// local-energy engine found distinct (the local_energy.distinct_rows and
/// local_energy.rows counters; null with telemetry off), plus
/// bench_common's provenance block (commit, CPU, SIMD level, OpenMP
/// thread count, compiler, build type).

#include <fstream>
#include <iostream>
#include <sstream>

#include "bench_common.hpp"
#include "nn/made.hpp"
#include "parallel/cost_model.hpp"
#include "sampler/metropolis_sampler.hpp"

using namespace vqmc;
using namespace vqmc::bench;

namespace {

/// distinct / rows as a JSON number, or null when nothing was counted.
std::string distinct_share_json(std::uint64_t distinct, std::uint64_t rows) {
  if (rows == 0) return "null";
  std::ostringstream out;
  out << double(distinct) / double(rows);
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  OptionParser opts("bench_table1_training_time",
                    "Table 1: training time, RBM&MCMC vs MADE&AUTO on TIM");
  add_scale_options(opts);
  opts.add_option("json", "BENCH_table1.json",
                  "machine-readable artifact path (empty disables)");
  opts.add_option("commit", "unknown", "commit id recorded in the artifact");
  bool ok = false;
  Scale scale = parse_scale(opts, argc, argv, ok);
  if (!ok) return 0;
  scale.seeds = 1;  // Table 1 reports a single timing per cell
  print_scale_banner("Table 1: training time (seconds) on TIM", scale,
                     opts.get_flag("full"));

  Table table("Training time (seconds) for " +
              std::to_string(scale.iterations) + " iterations");
  std::vector<std::string> header = {"Model", "Optimizer", "Sampler"};
  for (int n : scale.dims) header.push_back("n=" + std::to_string(n));
  table.set_header(header);

  std::vector<std::string> rbm_row = {"RBM", "ADAM", "MCMC"};
  std::vector<std::string> made_row = {"MADE", "ADAM", "AUTO"};
  std::ostringstream measured_json;
  for (int n : scale.dims) {
    const TransverseFieldIsing tim =
        TransverseFieldIsing::random_dense(std::size_t(n), std::uint64_t(n));
    const ComboResult rbm = run_combo(tim, "RBM", "MCMC", "ADAM", scale, 1);
    const ComboResult made = run_combo(tim, "MADE", "AUTO", "ADAM", scale, 1);
    rbm_row.push_back(format_fixed(rbm.train_seconds, 2));
    made_row.push_back(format_fixed(made.train_seconds, 2));
    if (measured_json.tellp() > 0) measured_json << ",\n";
    measured_json << "    {\"n\": " << n
                  << ", \"rbm_mcmc_seconds\": " << rbm.train_seconds
                  << ", \"made_auto_seconds\": " << made.train_seconds
                  << ", \"speedup\": "
                  << rbm.train_seconds / std::max(1e-9, made.train_seconds)
                  << ",\n     \"rbm_mcmc_phases\": "
                  << phases_to_json(rbm.phase_totals)
                  << ",\n     \"made_auto_phases\": "
                  << phases_to_json(made.phase_totals)
                  << ",\n     \"rbm_mcmc_distinct_row_share\": "
                  << distinct_share_json(rbm.local_energy_distinct_rows,
                                         rbm.local_energy_rows)
                  << ", \"made_auto_distinct_row_share\": "
                  << distinct_share_json(made.local_energy_distinct_rows,
                                         made.local_energy_rows)
                  << "}";
    std::cout << "n=" << n << ": RBM&MCMC " << format_fixed(rbm.train_seconds, 2)
              << "s, MADE&AUTO " << format_fixed(made.train_seconds, 2)
              << "s (speedup "
              << format_fixed(rbm.train_seconds /
                                  std::max(1e-9, made.train_seconds),
                              1)
              << "x)\n";
    // Phase attribution (DESIGN.md §5d): where each combo's time went.
    const std::string rbm_phases = format_phase_breakdown(rbm.phase_totals);
    const std::string made_phases = format_phase_breakdown(made.phase_totals);
    if (!rbm_phases.empty())
      std::cout << "      RBM&MCMC phases:  " << rbm_phases << "\n";
    if (!made_phases.empty())
      std::cout << "      MADE&AUTO phases: " << made_phases << "\n";
    // Local energy evaluates each distinct row once (DESIGN.md §5l).
    if (rbm.local_energy_rows > 0 && made.local_energy_rows > 0)
      std::cout << "      distinct rows:    RBM&MCMC "
                << distinct_share_json(rbm.local_energy_distinct_rows,
                                       rbm.local_energy_rows)
                << ", MADE&AUTO "
                << distinct_share_json(made.local_energy_distinct_rows,
                                       made.local_energy_rows)
                << "\n";
  }
  table.add_row(rbm_row);
  table.add_row(made_row);
  std::cout << "\n" << table.to_string() << "\n";
  std::cout
      << "NOTE: measured times above run on a flop-bound CPU substrate. "
         "MADE&AUTO samples through the O(h n) conditional engine and "
         "evaluates its n single-flip neighbours through the incremental "
         "flip-ratio path (O(h n^2 / 6) per sample instead of one O(h n) "
         "forward per neighbour); the local energy is still its largest "
         "phase (see the MADE&AUTO phase shares). The paper's V100 "
         "timings are per-pass *latency*-bound, which is what penalizes "
         "MCMC's k + bs/c tiny-batch chain steps. The modeled section below "
         "applies the V100-class cost model (see src/parallel/cost_model.hpp)"
         " at the paper's full scale:\n\n";

  // --- MODELED: paper scale on a V100-class device --------------------------
  const parallel::DeviceCostModel device;
  const std::vector<int> paper_dims = {20, 50, 100, 200, 500};
  const std::size_t paper_bs = 1024;
  const int paper_iters = 300;
  Table modeled("MODELED training time (seconds), V100-class device, 300 "
                "iterations, batch 1024");
  std::vector<std::string> mh = {"Model", "Sampler"};
  for (int n : paper_dims) mh.push_back("n=" + std::to_string(n));
  modeled.set_header(mh);
  std::vector<std::string> m_rbm = {"RBM", "MCMC"};
  std::vector<std::string> m_made = {"MADE", "AUTO"};
  for (int n : paper_dims) {
    const std::size_t un = std::size_t(n);
    const std::size_t h_made = made_default_hidden(un);
    const double t_made =
        paper_iters * parallel::model_auto_iteration_seconds(device, un,
                                                             h_made, paper_bs,
                                                             1024);
    const double t_rbm =
        paper_iters * parallel::model_mcmc_iteration_seconds(
                          device, un, un, paper_bs, 2, paper_burn_in(un), 1,
                          1024);
    m_made.push_back(format_fixed(t_made, 2));
    m_rbm.push_back(format_fixed(t_rbm, 2));
  }
  modeled.add_row(m_rbm);
  modeled.add_row(m_made);
  std::cout << modeled.to_string() << "\n";
  std::cout << "Paper reference (V100, full scale): RBM&MCMC 135.6 -> 456.7 s,"
               " MADE&AUTO 2.9 -> 49.6 s over n = 20 -> 500.\n";

  const std::string json_path = opts.get_string("json");
  if (!json_path.empty()) {
    std::ostringstream json;
    json << "{\n  \"bench\": \"table1_training_time\",\n"
         << provenance_json(opts.get_string("commit"));
    json << "  \"iterations\": " << scale.iterations
         << ",\n  \"batch_size\": " << scale.batch_size
         << ",\n  \"full_scale\": " << (opts.get_flag("full") ? "true" : "false")
         << ",\n  \"measured\": [\n"
         << measured_json.str() << "\n  ],\n";
    json << "  \"modeled_v100\": [\n";
    for (std::size_t i = 0; i < paper_dims.size(); ++i) {
      const std::size_t un = std::size_t(paper_dims[i]);
      const std::size_t h_made = made_default_hidden(un);
      const double t_made =
          paper_iters * parallel::model_auto_iteration_seconds(
                            device, un, h_made, paper_bs, 1024);
      const double t_rbm =
          paper_iters * parallel::model_mcmc_iteration_seconds(
                            device, un, un, paper_bs, 2, paper_burn_in(un), 1,
                            1024);
      json << "    {\"n\": " << paper_dims[i]
           << ", \"rbm_mcmc_seconds\": " << t_rbm
           << ", \"made_auto_seconds\": " << t_made << "}"
           << (i + 1 < paper_dims.size() ? ",\n" : "\n");
    }
    json << "  ],\n";
    json << "  \"paper_reference\": {\"rbm_mcmc_seconds\": [135.6, 456.7], "
            "\"made_auto_seconds\": [2.9, 49.6], \"dims\": [20, 500]}\n}\n";
    std::ofstream file(json_path);
    file << json.str();
    std::cout << "wrote " << json_path << "\n";
  }
  return 0;
}
