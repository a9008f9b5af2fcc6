#pragma once

/// \file metropolis_sampler.hpp
/// \brief Random-walk Metropolis–Hastings sampler over the Born distribution
/// pi_theta(x) ∝ exp(2 log psi_theta(x)).
///
/// The sampler reproduces the paper's MCMC configuration (Section 5.1):
/// single-site-flip proposals, c parallel chains (default 2), burn-in of
/// k steps per chain per sampling call (default k = 3n + 100) and optional
/// thinning.  Chains restart from random configurations on every `sample()`
/// call — as in the paper, where each of the 300 training iterations pays
/// the full burn-in — unless `persistent_chains` is set.
///
/// Table 4's ablations map to `burn_in` (Scheme 1: discard the first
/// {n, 10n}) and `thinning` (Scheme 2: keep every {2, 5, 10}-th sample).
///
/// Every proposal is scored through the model's chain walk
/// (WavefunctionModel::walk_start / walk_score / walk_accept, DESIGN.md
/// §5n): the default is one batched log_psi over the c proposals per MH
/// step, the RBM scores a move in O(h) from theta kept per chain.  The
/// walk is rebuilt at the start of every draw, so no state derived from the
/// parameters outlives one.  It runs on a workspace the sampler makes from
/// the model once, where a model keeps its per-chain state between the
/// walk's calls, so a warm draw allocates nothing; the caller's workspace is
/// not used.
///
/// Forward-pass accounting: one model evaluation per MH step across all
/// chains, whichever walk scores it, so a call costs k + j * ceil(bs/c)
/// of them (Figure 1, Eq. 14).

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/wavefunction.hpp"
#include "rng/xoshiro.hpp"
#include "sampler/sampler.hpp"

namespace vqmc {

/// Acceptance rule for single-site-flip chains.
enum class AcceptanceRule {
  /// Metropolis-Hastings: accept with min(1, pi'/pi). The paper's sampler.
  MetropolisHastings,
  /// Heat-bath / Gibbs / Barker: accept with pi'/(pi + pi'). Same
  /// stationary distribution, different mixing profile; included because
  /// Section 2.2 lists Gibbs sampling among the MCMC variants.
  HeatBath,
};

/// Proposal move set for the chains.
enum class ProposalKind {
  /// Flip one uniformly random site (the paper's random-walk move).
  SingleFlip,
  /// Swap the values of one random up-spin and one random down-spin.
  /// Conserves total magnetization, so the chain explores a fixed
  /// particle-number sector — the right move set for U(1)-symmetric models
  /// like the XXZ chain. Falls back to a single flip when the current
  /// configuration is fully polarized (the swap move would be stuck).
  PairExchange,
};

/// Configuration of the MH sampler; defaults follow Section 5.1.
struct MetropolisConfig {
  std::size_t num_chains = 2;
  /// Burn-in steps per chain per sample() call; the paper's heuristic is
  /// k = 3n + 100 (use `paper_burn_in`).
  std::size_t burn_in = 0;
  /// Keep every `thinning`-th post-burn-in state (1 = keep all).
  std::size_t thinning = 1;
  /// Keep chain state across sample() calls instead of re-burning.
  bool persistent_chains = false;
  /// Re-equilibration steps run at the start of every persistent-chain
  /// sample() call (after the chains are re-scored under the updated
  /// parameters). The default 0 preserves the historical behavior: chains
  /// resume exactly where they stopped, which is cheap but biased — the
  /// retained states are distributed according to the *previous* iteration's
  /// pi_theta, and small parameter updates make that bias small but
  /// systematic. A few tens of steps trade forward passes for a chain that
  /// has relaxed toward the updated distribution. Ignored when
  /// `persistent_chains` is false (full burn-in runs instead).
  std::size_t reburn_in = 0;
  AcceptanceRule rule = AcceptanceRule::MetropolisHastings;
  ProposalKind proposal = ProposalKind::SingleFlip;
  std::uint64_t seed = 0;
};

/// The paper's burn-in heuristic k = 3n + 100.
constexpr std::size_t paper_burn_in(std::size_t n) { return 3 * n + 100; }

/// Random-walk MH sampler (works with any WavefunctionModel, normalized or
/// not — only log-psi differences enter the acceptance ratio).
class MetropolisSampler final : public Sampler {
 public:
  MetropolisSampler(const WavefunctionModel& model, MetropolisConfig config);

  void sample_ws(Matrix& out, WavefunctionModel::Workspace* ws) override;

  [[nodiscard]] const SamplerStatistics& statistics() const override {
    return stats_;
  }
  [[nodiscard]] std::string name() const override {
    return config_.rule == AcceptanceRule::HeatBath ? "GIBBS" : "MCMC";
  }

  [[nodiscard]] const MetropolisConfig& config() const { return config_; }

  /// State layout: [4 RNG words, chain flag, then — only when the flag is
  /// kLiveChains — the c x n chain states (bit-cast 0.0 / 1.0)].
  /// Persistent chains therefore survive checkpoint/restart exactly.  Flag
  /// 1 marked the layout before the chain walk, which also carried c
  /// log-psi words (recomputed at every draw, never read); restore_state
  /// rejects it with a typed Error, as it does any state it cannot resume,
  /// before it changes anything.
  [[nodiscard]] std::vector<std::uint64_t> serialize_state() const override;
  void restore_state(const std::vector<std::uint64_t>& state) override;

  /// serialize_state's chain flags.
  static constexpr std::uint64_t kNoChains = 0;
  static constexpr std::uint64_t kLiveChains = 2;

 private:
  /// (Re-)initialize chains uniformly at random.
  void restart_chains();

  /// One MH step across all chains (one model evaluation).
  void step();

  const WavefunctionModel& model_;
  MetropolisConfig config_;
  rng::Xoshiro256 gen_;
  SamplerStatistics stats_;

  /// Chain states, proposals, moves and ratios (walk_.states is the
  /// sampler's chain state; the rest is per-draw scratch).
  WavefunctionModel::ChainWalk walk_;
  /// The walk's workspace, from model_.make_workspace().
  std::unique_ptr<WavefunctionModel::Workspace> walk_ws_;
  bool chains_initialized_ = false;
};

}  // namespace vqmc
