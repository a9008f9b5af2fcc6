/// \file number_partitioning.cpp
/// \brief Number partitioning as a QUBO (Section 2.4's "quadratic
/// unconstrained binary optimization" family): split a set of weights into
/// two groups with minimal sum difference.
///
/// With s_i = 1 - 2 x_i the squared imbalance expands to
///   (sum_i a_i s_i)^2 = sum_i a_i^2 + 2 sum_{i<j} a_i a_j s_i s_j,
/// a diagonal Ising energy, i.e. a QUBO after the s -> x substitution.
/// VQMC with exact autoregressive sampling is used as the heuristic; a
/// greedy differencing baseline provides the comparison.
///
///   ./build/examples/number_partitioning --n 24 --seed 5

#include <algorithm>
#include <iostream>
#include <limits>
#include <numeric>

#include "common/options.hpp"
#include "common/table.hpp"
#include "core/factory.hpp"
#include "core/trainer.hpp"
#include "hamiltonian/qubo.hpp"
#include "nn/made.hpp"
#include "optim/adam.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"

int main(int argc, char** argv) {
  using namespace vqmc;

  OptionParser opts("number_partitioning", "QUBO heuristic via VQMC");
  opts.add_option("n", "24", "number of weights");
  opts.add_option("seed", "5", "instance + solver seed");
  opts.add_option("iterations", "200", "training iterations");
  if (!opts.parse(argc, argv)) return 0;

  const std::size_t n = std::size_t(opts.get_int("n"));
  const std::uint64_t seed = std::uint64_t(opts.get_int("seed"));

  // Random positive weights.
  rng::Xoshiro256 gen(seed);
  std::vector<Real> weights(n);
  for (Real& w : weights) w = rng::uniform(gen, 1.0, 100.0);
  const Real total = std::accumulate(weights.begin(), weights.end(), Real(0));

  auto imbalance = [&](std::span<const Real> x) {
    Real signed_sum = 0;
    for (std::size_t i = 0; i < n; ++i)
      signed_sum += weights[i] * (1 - 2 * x[i]);
    return std::abs(signed_sum);
  };

  // Ising energy (sum a_i s_i)^2 as a QUBO: substitute s = 1 - 2x.
  //   E = sum a_i^2 + 2 sum_{i<j} a_i a_j (1 - 2x_i)(1 - 2x_j)
  // Expanding the product gives constant + linear + quadratic terms in x.
  std::vector<Qubo::Term> terms;
  for (std::size_t i = 0; i < n; ++i) {
    Real linear = 0;
    for (std::size_t j = 0; j < n; ++j)
      if (j != i) linear += -4 * weights[i] * weights[j];
    terms.push_back({i, i, linear});
    for (std::size_t j = i + 1; j < n; ++j)
      terms.push_back({i, j, 8 * weights[i] * weights[j]});
  }
  const Qubo problem(n, std::move(terms));

  // Greedy baseline: place each weight (descending) on the lighter side.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t(0));
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return weights[a] > weights[b]; });
  Vector greedy(n);
  Real left = 0, right = 0;
  for (std::size_t i : order) {
    if (left <= right) {
      left += weights[i];
      greedy[i] = 0;
    } else {
      right += weights[i];
      greedy[i] = 1;
    }
  }

  // VQMC heuristic.
  Made model = Made::with_default_hidden(n);
  model.initialize(seed + 1);
  const auto sampler = make_sampler("AUTO", model, seed + 2);
  Adam optimizer(0.05);
  TrainerConfig config;
  config.iterations = opts.get_int("iterations");
  config.batch_size = 256;
  VqmcTrainer trainer(problem, model, *sampler, optimizer, config);
  trainer.run();

  Matrix samples;
  trainer.evaluate_with_samples(1024, samples);
  Real best = std::numeric_limits<Real>::max();
  for (std::size_t k = 0; k < samples.rows(); ++k)
    best = std::min(best, imbalance(samples.row(k)));

  std::cout << "number partitioning, n=" << n << ", total weight "
            << format_fixed(total, 1) << "\n";
  std::cout << "greedy baseline imbalance: "
            << format_fixed(imbalance(greedy.span()), 3) << "\n";
  std::cout << "VQMC best imbalance:       " << format_fixed(best, 3) << "\n";
  std::cout << "training time:             "
            << format_fixed(trainer.training_seconds(), 2) << " s\n";
  return 0;
}
