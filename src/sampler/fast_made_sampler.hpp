#pragma once

/// \file fast_made_sampler.hpp
/// \brief Incremental ancestral sampler for MADE: O(bs h n) per batch
/// instead of Algorithm 1's O(bs h n^2).  make_sampler("AUTO") returns it
/// for a Made, so trainers, distributed ranks and benches all draw through
/// it; AutoregressiveSampler remains for the other autoregressive models
/// and as this sampler's bitwise test oracle.
///
/// Algorithm 1 re-runs the full forward pass (two O(h n) matmuls per row)
/// for each of the n sites even though, between consecutive passes, exactly
/// one input entry per row can change (the site just sampled).  This
/// sampler keeps the hidden pre-activations A1 = x W1m^T + b1 as running
/// state and applies rank-1 updates:
///
///   site i sampled to 1  =>  A1 row += column i of W1m,
///
/// then evaluates only the single conditional p_{i+1} it needs via one
/// O(h) dot product per row.  The result distribution is *identical* to
/// AutoregressiveSampler — the tests check bit-for-bit equality under the
/// same seed — only asymptotically faster, which matters because sampling
/// dominates the paper's per-iteration cost (Section 4's O(h n^2 mbs)
/// becomes O(h n mbs)).
///
/// Cost accounting and instruments: the statistics still count n "forward
/// passes" per batch to stay comparable with the baseline sampler's
/// Figure-1 accounting, and the sampler reports name() == "AUTO" and emits
/// the same `sample.auto` span and `sampler.auto.*` counters, so
/// checkpoints, rank registries and dashboards see one AUTO sampler.
///
/// The logits read W2's prefix rows in place in the model's parameter
/// vector, and each call packs W1's columns from the current parameters
/// into the workspace (Made::pack_w1_columns, one copy of each in-mask W1
/// entry); the inner loops iterate only the mask prefixes, skipping the
/// structurally zero terms without changing any result bit.
///
/// The draw loop itself lives in the shared batched conditional engine
/// (sampler/conditional_engine.hpp): per site, one relu_dot_prefix_batch
/// kernel call evaluates the whole batch's logits, non-finite conditionals
/// are clamped to an unbiased coin and counted (nonfinite_rejections, as in
/// the baseline), and the rank-1 updates add each flipped input's
/// contiguous run of hidden units to exactly the rows that flipped, in
/// 64-site blocks.
///
/// sample_ws, the sampler's one draw virtual, runs the engine in the
/// caller's Made::Workspace when it passes one (workspace_or; the trainer
/// passes its model workspace), else in the sampler's own.
///
/// Thread safety: a FastMadeSampler instance is single-threaded — it owns
/// mutable scratch (the engine workspace) and an RNG stream.  The borrowed
/// Made, however, is only ever read through const methods, so any number of
/// sampler instances (one per thread) may share one frozen model
/// concurrently.  The serving path (serve::ModelSnapshot) runs the same
/// engine with per-request generators, keeping the two draw streams
/// bit-for-bit identical (tested).

#include <cstdint>

#include "nn/made.hpp"
#include "rng/xoshiro.hpp"
#include "sampler/sampler.hpp"

namespace vqmc {

/// The AUTO sampler for the Made architecture.
class FastMadeSampler final : public Sampler {
 public:
  /// \param model the MADE wavefunction (not owned; must outlive the
  ///        sampler). Parameter *values* may change between sample() calls
  ///        (each call reads the current parameters).
  FastMadeSampler(const Made& model, std::uint64_t seed);

  void sample_ws(Matrix& out, WavefunctionModel::Workspace* ws) override;

  [[nodiscard]] const SamplerStatistics& statistics() const override {
    return stats_;
  }
  [[nodiscard]] std::string name() const override { return "AUTO"; }

  /// State layout: the 4 RNG words (draws are otherwise stateless).
  [[nodiscard]] std::vector<std::uint64_t> serialize_state() const override {
    const auto words = gen_.state();
    return {words.begin(), words.end()};
  }
  void restore_state(const std::vector<std::uint64_t>& state) override {
    VQMC_REQUIRE(state.size() == 4, "AUTO: sampler state size mismatch");
    gen_.set_state({state[0], state[1], state[2], state[3]});
  }

 private:
  const Made& model_;
  rng::Xoshiro256 gen_;
  SamplerStatistics stats_;

  // Engine scratch for a null or foreign caller workspace (workspace_or).
  Made::Workspace scratch_;
};

}  // namespace vqmc
