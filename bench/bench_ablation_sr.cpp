/// \file bench_ablation_sr.cpp
/// \brief Ablation of the stochastic-reconfiguration design choices that
/// DESIGN.md calls out: the regularization lambda (the paper fixes 1e-3
/// without a sweep) and the dense-vs-matrix-free solve path.
///
/// Expected shape: a broad sweet spot around lambda ~ 1e-3..1e-2 (too small
/// -> ill-conditioned natural gradient, too large -> SR degenerates to
/// plain SGD); the CG path matches the dense path's convergence while
/// avoiding the d x d matrix.

#include <iostream>

#include "bench_common.hpp"
#include "nn/made.hpp"
#include "optim/sgd.hpp"

using namespace vqmc;
using namespace vqmc::bench;

namespace {

Real final_energy(const TransverseFieldIsing& tim, Real lambda,
                  std::size_t dense_threshold, int iterations,
                  std::size_t batch, std::uint64_t seed,
                  std::size_t hidden = 0) {
  Made made = hidden == 0 ? Made::with_default_hidden(tim.num_spins())
                          : Made(tim.num_spins(), hidden);
  made.initialize(seed);
  const auto sampler = make_sampler("AUTO", made, seed + 1);
  Sgd sgd(0.1);
  TrainerConfig cfg;
  cfg.iterations = iterations;
  cfg.batch_size = batch;
  cfg.use_sr = true;
  cfg.sr.regularization = lambda;
  cfg.sr.dense_threshold = dense_threshold;
  VqmcTrainer trainer(tim, made, *sampler, sgd, cfg);
  trainer.run();
  return trainer.evaluate(512).mean;
}

}  // namespace

int main(int argc, char** argv) {
  OptionParser opts("bench_ablation_sr",
                    "SR ablation: regularization sweep + solve-path parity");
  add_scale_options(opts);
  bool ok = false;
  Scale scale = parse_scale(opts, argc, argv, ok);
  if (!ok) return 0;
  if (!opts.get_flag("full")) {
    scale.dims = {20, 40};
    scale.iterations = 50;
    scale.batch_size = 96;
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
          final_energy(tim, lambda, 0 /* force CG */, scale.iterations,
                       scale.batch_size, 1),
          2));
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

  // --- Dense vs CG solve-path parity ----------------------------------------
  // The dense path Cholesky-factors the d x d Fisher every iteration
  // (O(d^3)), so parity is checked on a deliberately small model: n = 16,
  // h = 12 -> d = 412. The CG path handles the paper-scale d.
  std::cout << "Solve-path parity (n = 16, h = 12, same seed, lambda = "
               "1e-3):\n";
  Table parity("");
  parity.set_header({"n", "dense-path energy", "CG-path energy", "abs diff"});
  {
    const std::size_t n = 16, h = 12;
    const TransverseFieldIsing tim =
        TransverseFieldIsing::random_dense(n, 7000 + n);
    const Real dense = final_energy(tim, 1e-3, std::size_t(1) << 30,
                                    scale.iterations, scale.batch_size, 3, h);
    const Real cg = final_energy(tim, 1e-3, 0, scale.iterations,
                                 scale.batch_size, 3, h);
    parity.add_row({std::to_string(n), format_fixed(dense, 4),
                    format_fixed(cg, 4),
                    format_fixed(std::abs(dense - cg), 5)});
  }
  std::cout << parity.to_string() << "\n";
  std::cout << "Shape check: sweet spot around 1e-3..1e-2; very large lambda "
               "approaches the no-SR column; dense and CG paths agree to "
               "solver tolerance.\n";
  return 0;
}
