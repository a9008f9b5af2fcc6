/// \file quickstart.cpp
/// \brief Five-minute tour of the library: build a small transverse-field
/// Ising Hamiltonian, train a MADE wavefunction with exact autoregressive
/// sampling, and check the result against exact diagonalization.
///
/// Build & run:
///   cmake -B build -G Ninja && cmake --build build
///   ./build/examples/quickstart

#include <iostream>

#include "core/factory.hpp"
#include "core/trainer.hpp"
#include "hamiltonian/exact.hpp"
#include "hamiltonian/transverse_field_ising.hpp"
#include "nn/made.hpp"
#include "optim/adam.hpp"

int main() {
  using namespace vqmc;

  // 1. A random 8-spin disordered TIM instance (Eq. 11 of the paper):
  //    H = -sum alpha_i X_i - sum beta_i Z_i - sum beta_ij Z_i Z_j.
  const std::size_t n = 8;
  const TransverseFieldIsing hamiltonian =
      TransverseFieldIsing::random_dense(n, /*seed=*/42);

  // 2. Ground truth for this small instance (Lanczos on the 2^8 space).
  const ExactGroundState exact = exact_ground_state(hamiltonian);
  std::cout << "exact ground energy: " << exact.energy << "\n";

  // 3. The variational model: MADE with the paper's default hidden width
  //    h = 5 (log n)^2, sampled exactly by the AUTO sampler.
  Made model = Made::with_default_hidden(n);
  model.initialize(/*seed=*/7);
  const auto sampler = make_sampler("AUTO", model, /*seed=*/11);
  Adam optimizer(/*learning_rate=*/0.02);

  // 4. Train: sample -> measure local energies -> gradient step.
  TrainerConfig config;
  config.iterations = 300;
  config.batch_size = 256;
  VqmcTrainer trainer(hamiltonian, model, *sampler, optimizer, config);
  trainer.run();

  // 5. Evaluate on fresh samples and report.
  const EnergyEstimate estimate = trainer.evaluate(1024);
  std::cout << "VQMC energy:         " << estimate.mean << " +- "
            << estimate.std_error << "\n";
  std::cout << "std of local energy: " << estimate.std_dev
            << "  (approaches 0 at an exact eigenstate, Eq. 4)\n";
  std::cout << "relative error:      "
            << (estimate.mean - exact.energy) / std::abs(exact.energy)
            << "\n";
  std::cout << "training time:       " << trainer.training_seconds() << " s ("
            << config.iterations << " iterations)\n";
  return 0;
}
