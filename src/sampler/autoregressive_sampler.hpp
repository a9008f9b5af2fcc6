#pragma once

/// \file autoregressive_sampler.hpp
/// \brief Exact ancestral sampling from an autoregressive model
/// (Algorithm 1 of the paper, batched).
///
/// Site i is drawn from p(x_i | x_{<i}), which MADE produces for every i in
/// one forward pass; sampling a batch therefore costs exactly n forward
/// passes regardless of batch size — the property that makes the sampling
/// step embarrassingly parallel across devices.

#include <cstdint>

#include "nn/wavefunction.hpp"
#include "rng/xoshiro.hpp"
#include "sampler/sampler.hpp"

namespace vqmc {

/// AUTO sampler: exact i.i.d. draws from pi_theta.
class AutoregressiveSampler final : public Sampler {
 public:
  /// \param model the autoregressive wavefunction (not owned; must outlive
  ///        the sampler)
  /// \param seed RNG seed for this sampler's private stream
  AutoregressiveSampler(const AutoregressiveModel& model, std::uint64_t seed);

  /// The n conditionals passes run on `ws` (model.conditionals).
  void sample_ws(Matrix& out, WavefunctionModel::Workspace* ws) override;

  [[nodiscard]] const SamplerStatistics& statistics() const override {
    return stats_;
  }
  [[nodiscard]] std::string name() const override { return "AUTO"; }

  /// State layout: the 4 RNG words (AUTO draws are otherwise stateless).
  [[nodiscard]] std::vector<std::uint64_t> serialize_state() const override {
    const auto words = gen_.state();
    return {words.begin(), words.end()};
  }
  void restore_state(const std::vector<std::uint64_t>& state) override {
    VQMC_REQUIRE(state.size() == 4, "AUTO: sampler state size mismatch");
    gen_.set_state({state[0], state[1], state[2], state[3]});
  }

 private:
  const AutoregressiveModel& model_;
  rng::Xoshiro256 gen_;
  SamplerStatistics stats_;
  Matrix conditionals_;  ///< scratch, reused across calls
};

}  // namespace vqmc
