/// \file maxcut_solver.cpp
/// \brief Max-Cut as combinatorial optimization with VQMC (Section 2.4 of
/// the paper): train MADE+AUTO on the diagonal cut Hamiltonian, polish the
/// best sampled partition with 1-swap local search, and compare against the
/// Random, Goemans-Williamson and Burer-Monteiro baselines.
///
///   ./build/examples/maxcut_solver --n 60 --seed 3 --iterations 150

#include <iostream>

#include "baselines/goemans_williamson.hpp"
#include "baselines/local_search.hpp"
#include "baselines/random_cut.hpp"
#include "common/options.hpp"
#include "core/factory.hpp"
#include "core/trainer.hpp"
#include "hamiltonian/maxcut.hpp"
#include "nn/made.hpp"
#include "optim/adam.hpp"

int main(int argc, char** argv) {
  using namespace vqmc;

  OptionParser opts("maxcut_solver", "VQMC Max-Cut heuristic vs baselines");
  opts.add_option("n", "60", "graph size");
  opts.add_option("seed", "3", "instance + solver seed");
  opts.add_option("iterations", "150", "training iterations");
  opts.add_option("batch", "256", "training batch size");
  if (!opts.parse(argc, argv)) return 0;

  const std::size_t n = std::size_t(opts.get_int("n"));
  const std::uint64_t seed = std::uint64_t(opts.get_int("seed"));

  // The paper's instance family: symmetrized Bernoulli graph (G(n, 1/4)).
  const MaxCut problem = MaxCut::paper_instance(n, seed);
  const Graph& graph = problem.graph();
  std::cout << "Max-Cut instance: n=" << n << ", |E|=" << graph.num_edges()
            << "\n\n";

  // --- Classical baselines -------------------------------------------------
  const Real random = baselines::random_cut(graph, seed).cut;
  baselines::GoemansWilliamsonOptions gw_opts;
  gw_opts.seed = seed;
  const baselines::GoemansWilliamsonResult gw =
      baselines::goemans_williamson(graph, gw_opts);
  baselines::BurerMonteiroCutOptions bm_opts;
  bm_opts.seed = seed;
  const Real bm = baselines::burer_monteiro_cut(graph, bm_opts).cut;
  std::cout << "Random cut:            " << random << "\n";
  std::cout << "Goemans-Williamson:    " << gw.best.cut
            << "  (SDP upper bound " << gw.sdp_objective << ")\n";
  std::cout << "Burer-Monteiro+polish: " << bm << "\n";

  // --- VQMC ----------------------------------------------------------------
  Made model = Made::with_default_hidden(n);
  model.initialize(seed);
  const auto sampler = make_sampler("AUTO", model, seed + 1);
  Adam optimizer(0.05);
  TrainerConfig config;
  config.iterations = opts.get_int("iterations");
  config.batch_size = std::size_t(opts.get_int("batch"));
  VqmcTrainer trainer(problem, model, *sampler, optimizer, config);
  trainer.run();

  Matrix samples;
  const EnergyEstimate est = trainer.evaluate_with_samples(1024, samples);
  Vector best(n);
  Real best_cut = -1;
  for (std::size_t k = 0; k < samples.rows(); ++k) {
    const Real c = problem.cut_value(samples.row(k));
    if (c > best_cut) {
      best_cut = c;
      auto row = samples.row(k);
      std::copy(row.begin(), row.end(), best.begin());
    }
  }
  const Real polished = baselines::local_search_1swap(graph, best);
  std::cout << "\nVQMC (MADE+AUTO+ADAM):\n";
  std::cout << "  mean cut over eval batch: " << problem.cut_from_energy(est.mean)
            << "\n";
  std::cout << "  best sampled cut:         " << best_cut << "\n";
  std::cout << "  after 1-swap polish:      " << polished << "\n";
  std::cout << "  training time:            " << trainer.training_seconds()
            << " s\n";
  return 0;
}
