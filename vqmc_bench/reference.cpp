/// \file reference.cpp
/// \brief The calibration loop. Built as its own target with fixed options
/// and no library dependency, so its speed depends on the host alone.

#include "reference.hpp"

#include <chrono>
#include <thread>
#include <vector>

namespace vqmc_bench {

namespace {

constexpr int kLanes = 16;          ///< independent accumulation chains
constexpr int kLength = 1024;       ///< doubles per operand: L1-resident
constexpr int kSweepsPerBlock = 348;

/// Microseconds one block takes on an idle core of the baseline machine
/// (Intel Xeon, family 6 model 207, 4-vCPU KVM guest; median of 200
/// blocks with the host quiet).
constexpr double kBlockUsAtRest = 48.0;

struct Operands {
  alignas(64) double a[kLength];
  alignas(64) double b[kLength];
  Operands() {
    for (int i = 0; i < kLength; ++i) {
      a[i] = 1.0 + 1e-9 * i;
      b[i] = 0.5 - 1e-9 * i;
    }
  }
};

const Operands& operands() {
  static const Operands ops;
  return ops;
}

/// Keeps the loop from being optimized away; one per thread, so threads
/// timing the loop at once share nothing.
thread_local volatile double sink = 0;

__attribute__((noinline)) double run_blocks(int blocks) {
  const Operands& ops = operands();
  double acc[kLanes] = {};
  for (int block = 0; block < blocks; ++block)
    for (int sweep = 0; sweep < kSweepsPerBlock; ++sweep)
      for (int i = 0; i < kLength; i += kLanes)
        for (int j = 0; j < kLanes; ++j) acc[j] += ops.a[i + j] * ops.b[i + j];
  double total = 0;
  for (double v : acc) total += v;
  return total;
}

}  // namespace

double core_speed(int blocks) {
  const auto start = std::chrono::steady_clock::now();
  sink = sink + run_blocks(blocks);
  const double us = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  return kBlockUsAtRest * blocks / us;
}

double machine_speed(int threads, int blocks) {
  std::vector<double> speeds(static_cast<std::size_t>(threads));
  {
    // Fresh threads, so the calling thread (often just woken) reads nothing.
    std::vector<std::jthread> pool;  // joined on every exit path
    for (int t = 0; t < threads; ++t)
      pool.emplace_back([&speeds, t, blocks] {
        speeds[static_cast<std::size_t>(t)] = core_speed(blocks);
      });
  }
  double total = 0;
  for (double s : speeds) total += s;
  return total / threads;
}

}  // namespace vqmc_bench
