/// \file tim_ground_state.cpp
/// \brief Ground-state search for the disordered transverse-field Ising
/// model with stochastic reconfiguration (natural gradient), the paper's
/// strongest optimizer configuration (SGD+SR, Table 2).
///
/// Prints the Figure-2-style training curve (energy + std of the stochastic
/// objective) and, for small n, the exact ground energy for comparison.
///
///   ./build/examples/tim_ground_state --n 16 --iterations 200

#include <iostream>

#include "common/options.hpp"
#include "common/table.hpp"
#include "core/factory.hpp"
#include "core/trainer.hpp"
#include "hamiltonian/exact.hpp"
#include "hamiltonian/transverse_field_ising.hpp"
#include "nn/made.hpp"
#include "optim/sgd.hpp"

int main(int argc, char** argv) {
  using namespace vqmc;

  OptionParser opts("tim_ground_state",
                    "TIM ground state via MADE + AUTO + SGD + SR");
  opts.add_option("n", "16", "number of spins");
  opts.add_option("seed", "1", "instance + solver seed");
  opts.add_option("iterations", "200", "training iterations");
  opts.add_option("batch", "256", "training batch size");
  opts.add_flag("no-sr", "disable stochastic reconfiguration");
  if (!opts.parse(argc, argv)) return 0;

  const std::size_t n = std::size_t(opts.get_int("n"));
  const std::uint64_t seed = std::uint64_t(opts.get_int("seed"));
  const TransverseFieldIsing hamiltonian =
      TransverseFieldIsing::random_dense(n, seed);

  Made model = Made::with_default_hidden(n);
  model.initialize(seed + 1);
  const auto sampler = make_sampler("AUTO", model, seed + 2);
  Sgd optimizer(0.1);  // the paper's SGD+SR setting

  TrainerConfig config;
  config.iterations = opts.get_int("iterations");
  config.batch_size = std::size_t(opts.get_int("batch"));
  config.use_sr = !opts.get_flag("no-sr");
  config.sr.regularization = 1e-3;  // the paper's lambda
  VqmcTrainer trainer(hamiltonian, model, *sampler, optimizer, config);

  std::cout << "TIM n=" << n << ", optimizer SGD(0.1)"
            << (config.use_sr ? "+SR(1e-3)" : "") << "\n";
  std::cout << "iter\tenergy\tstd\n";
  const int stride = std::max(1, config.iterations / 20);
  for (int i = 0; i < config.iterations; ++i) {
    const IterationMetrics m = trainer.step();
    if (m.iteration % stride == 0 || i + 1 == config.iterations)
      std::cout << m.iteration << "\t" << format_fixed(m.energy, 4) << "\t"
                << format_fixed(m.std_dev, 4) << "\n";
  }

  const EnergyEstimate est = trainer.evaluate(1024);
  std::cout << "\nfinal energy: " << est.mean << " +- " << est.std_error
            << " (std of local energy " << est.std_dev << ")\n";
  if (n <= 18) {
    const ExactGroundState exact = exact_ground_state(hamiltonian);
    std::cout << "exact energy: " << exact.energy << " (relative error "
              << (est.mean - exact.energy) / std::abs(exact.energy) << ")\n";
  } else {
    std::cout << "(n > 18: exact diagonalization skipped)\n";
  }
  return 0;
}
