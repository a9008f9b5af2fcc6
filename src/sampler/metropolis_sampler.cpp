#include "sampler/metropolis_sampler.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "rng/distributions.hpp"
#include "telemetry/metrics_registry.hpp"
#include "telemetry/tracer.hpp"
#include "tensor/kernels.hpp"

namespace vqmc {

namespace {

/// The chain flag of the layout before the chain walk (c log-psi words
/// after the chains).
constexpr std::uint64_t kOldLiveChains = 1;

/// Flips the sites of `move` in one chain row (a site holds 0 or 1).
void apply_move(std::span<Real> row,
                const WavefunctionModel::ChainMove& move) {
  row[move.site] = 1 - row[move.site];
  if (move.partner != move.site) row[move.partner] = 1 - row[move.partner];
}

}  // namespace

MetropolisSampler::MetropolisSampler(const WavefunctionModel& model,
                                     MetropolisConfig config)
    : model_(model),
      config_(config),
      gen_(config.seed ^ 0x4d434d43ULL),
      walk_ws_(model.make_workspace()) {
  VQMC_REQUIRE(config_.num_chains >= 1, "MCMC: need at least one chain");
  VQMC_REQUIRE(config_.thinning >= 1, "MCMC: thinning must be >= 1");
  const std::size_t n = model_.num_spins();
  const std::size_t c = config_.num_chains;
  walk_.states = Matrix(c, n);
  walk_.proposals = Matrix(c, n);
  walk_.moves.resize(c);
  walk_.ratio = Vector(c);
  walk_.log_psi = Vector(c);
  walk_.proposal_log_psi = Vector(c);
}

std::vector<std::uint64_t> MetropolisSampler::serialize_state() const {
  static_assert(sizeof(Real) == sizeof(std::uint64_t),
                "chain-state serialization assumes 64-bit Real");
  const auto words = gen_.state();
  std::vector<std::uint64_t> state(words.begin(), words.end());
  state.push_back(chains_initialized_ ? kLiveChains : kNoChains);
  if (chains_initialized_) {
    const Matrix& states = walk_.states;
    state.reserve(state.size() + states.size());
    for (std::size_t i = 0; i < states.size(); ++i)
      state.push_back(std::bit_cast<std::uint64_t>(states.data()[i]));
  }
  return state;
}

void MetropolisSampler::restore_state(const std::vector<std::uint64_t>& state) {
  // Everything is checked before the first member changes, so a rejected
  // state leaves the sampler as it was.
  VQMC_REQUIRE(state.size() >= 5, name() + ": sampler state size mismatch");
  const std::uint64_t flag = state[4];
  VQMC_REQUIRE(flag != kOldLiveChains,
               name() + ": sampler state has the layout before the chain "
                        "walk (chain log-psi words), which cannot be resumed");
  VQMC_REQUIRE(flag == kNoChains || flag == kLiveChains,
               name() + ": unknown chain flag " + std::to_string(flag));
  const bool live = flag == kLiveChains;
  const std::size_t chain_words = live ? walk_.states.size() : 0;
  VQMC_REQUIRE(state.size() == 5 + chain_words,
               name() + ": sampler state size mismatch");
  const std::uint64_t zero = std::bit_cast<std::uint64_t>(Real(0));
  const std::uint64_t one = std::bit_cast<std::uint64_t>(Real(1));
  for (std::size_t i = 5; i < state.size(); ++i)
    VQMC_REQUIRE(state[i] == zero || state[i] == one,
                 name() + ": chain state entry is not 0 or 1");

  gen_.set_state({state[0], state[1], state[2], state[3]});
  chains_initialized_ = live;
  for (std::size_t i = 0; i < chain_words; ++i)
    walk_.states.data()[i] = std::bit_cast<Real>(state[5 + i]);
}

void MetropolisSampler::restart_chains() {
  const std::size_t n = model_.num_spins();
  for (std::size_t chain = 0; chain < config_.num_chains; ++chain)
    for (std::size_t j = 0; j < n; ++j)
      walk_.states(chain, j) = rng::bernoulli(gen_, 0.5) ? Real(1) : Real(0);
  chains_initialized_ = true;
}

void MetropolisSampler::step() {
  const std::size_t n = model_.num_spins();
  const std::size_t c = config_.num_chains;

  // Propose per chain: a single-site flip or a magnetization-conserving
  // pair exchange.  walk_.proposals equals walk_.states between steps, so
  // a proposal is its chain's row with the move applied.
  for (std::size_t chain = 0; chain < c; ++chain) {
    const std::span<const Real> x = walk_.states.row(chain);
    WavefunctionModel::ChainMove& move = walk_.moves[chain];
    bool paired = false;
    if (config_.proposal == ProposalKind::PairExchange) {
      // Pick a random up site and a random down site by index-within-class;
      // the swap proposal is symmetric, so no Hastings correction is needed.
      std::size_t ups = 0;
      for (std::size_t j = 0; j < n; ++j) ups += x[j] > Real(0.5) ? 1u : 0u;
      if (ups > 0 && ups < n) {
        std::size_t up_pick = std::size_t(rng::uniform_index(gen_, ups));
        std::size_t down_pick =
            std::size_t(rng::uniform_index(gen_, n - ups));
        std::size_t up_site = n, down_site = n;
        for (std::size_t j = 0; j < n; ++j) {
          if (x[j] > Real(0.5)) {
            if (up_pick-- == 0) up_site = j;
          } else {
            if (down_pick-- == 0) down_site = j;
          }
        }
        move = {up_site, down_site};
        paired = true;
      }
      // Fully polarized: fall through to a single flip so the chain can
      // still move (and, from a mixed state, re-enter the sector).
    }
    if (!paired) {
      const std::size_t site = std::size_t(rng::uniform_index(gen_, n));
      move = {site, site};
    }
    apply_move(walk_.proposals.row(chain), move);
  }

  // One model evaluation scores every chain's proposal.
  model_.walk_score(walk_, walk_ws_.get());
  ++stats_.forward_passes;

  // MH accepts with min(1, pi'/pi) = min(1, e^{2 dlogpsi}); heat bath with
  // pi'/(pi + pi') = sigmoid(2 dlogpsi). Both leave pi invariant.
  for (std::size_t chain = 0; chain < c; ++chain) {
    ++stats_.proposals;
    const WavefunctionModel::ChainMove& move = walk_.moves[chain];
    const Real dlog = walk_.ratio[chain];
    bool accept = false;
    if (std::isnan(dlog)) {
      // The walk scores a proposal whose log-psi is NaN or inf as NaN. It
      // must never enter the chain state: a NaN acceptance ratio silently
      // poisons every later step, and +inf would be accepted with
      // certainty. Reject outright and count the event.
      ++stats_.nonfinite_rejections;
    } else if (config_.rule == AcceptanceRule::HeatBath) {
      accept = rng::uniform01(gen_) < sigmoid(2 * dlog);
    } else {
      accept = dlog >= 0 || rng::uniform01(gen_) < std::exp(2 * dlog);
    }
    if (accept) {
      ++stats_.accepted;
      model_.walk_accept(walk_, chain, walk_ws_.get());
      apply_move(walk_.states.row(chain), move);
    } else {
      apply_move(walk_.proposals.row(chain), move);  // back to the state
    }
  }
}

void MetropolisSampler::sample_ws(Matrix& out,
                                  WavefunctionModel::Workspace* /*ws*/) {
  TELEMETRY_SPAN("sample.mcmc");
  const std::uint64_t nonfinite_before = stats_.nonfinite_rejections;
  const std::size_t n = model_.num_spins();
  VQMC_REQUIRE(out.cols() == n, "MCMC: output batch has wrong spin count");
  const std::size_t bs = out.rows();
  VQMC_REQUIRE(bs > 0, "MCMC: batch must be non-empty");

  // Burn-in (or persistent-chain re-equilibration) vs chain/collection time
  // are the two terms of the paper's MCMC budget (Eq. 14: k + j*bs/c model
  // evaluations); the split is recorded so Table 1 benches can attribute
  // which term dominates.
  Timer burn_timer;
  {
    TELEMETRY_SPAN("mcmc.burn_in");
    const bool restart = !config_.persistent_chains || !chains_initialized_;
    if (restart) restart_chains();
    // A new walk every draw: persistent chains are re-scored because the
    // model parameters have typically changed since the previous call.
    std::copy(walk_.states.data(), walk_.states.data() + walk_.states.size(),
              walk_.proposals.data());
    model_.walk_start(walk_, walk_ws_.get());
    ++stats_.forward_passes;
    // Full burn-in after a restart; persistent chains run the optional
    // re-equilibration toward the updated distribution (see
    // MetropolisConfig::reburn_in for the bias trade-off).
    const std::size_t steps = restart ? config_.burn_in : config_.reburn_in;
    for (std::size_t i = 0; i < steps; ++i) step();
  }
  const double burn_seconds = burn_timer.seconds();

  // Collect: round-robin over chains, advancing `thinning` steps between
  // kept states of the same chain (i.e. one step per kept sample when
  // c == 1 and thinning == 1).
  Timer chain_timer;
  {
    TELEMETRY_SPAN("mcmc.collect");
    const std::size_t c = config_.num_chains;
    std::size_t collected = 0;
    while (collected < bs) {
      for (std::size_t t = 0; t < config_.thinning; ++t) step();
      for (std::size_t chain = 0; chain < c && collected < bs; ++chain) {
        auto src = walk_.states.row(chain);
        auto dst = out.row(collected++);
        std::copy(src.begin(), src.end(), dst.begin());
      }
    }
  }

  if (telemetry::enabled()) {
    telemetry::MetricsRegistry& registry = telemetry::metrics();
    registry.counter("sampler.mcmc.batches").add();
    registry.histogram("sampler.mcmc.burn_in_seconds").observe(burn_seconds);
    registry.histogram("sampler.mcmc.chain_seconds")
        .observe(chain_timer.seconds());
    registry.counter("sampler.nonfinite_rejections")
        .add(stats_.nonfinite_rejections - nonfinite_before);
  }
}

}  // namespace vqmc
