#include "sampler/metropolis_sampler.hpp"

#include <bit>
#include <cmath>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "rng/distributions.hpp"
#include "telemetry/metrics_registry.hpp"
#include "telemetry/tracer.hpp"
#include "tensor/kernels.hpp"

namespace vqmc {

MetropolisSampler::MetropolisSampler(const WavefunctionModel& model,
                                     MetropolisConfig config)
    : model_(model), config_(config), gen_(config.seed ^ 0x4d434d43ULL) {
  VQMC_REQUIRE(config_.num_chains >= 1, "MCMC: need at least one chain");
  VQMC_REQUIRE(config_.thinning >= 1, "MCMC: thinning must be >= 1");
  const std::size_t n = model_.num_spins();
  const std::size_t c = config_.num_chains;
  states_ = Matrix(c, n);
  state_log_psi_ = Vector(c);
  proposals_ = Matrix(c, n);
  proposal_log_psi_ = Vector(c);
  flip_sites_.resize(c);
}

std::vector<std::uint64_t> MetropolisSampler::serialize_state() const {
  static_assert(sizeof(Real) == sizeof(std::uint64_t),
                "chain-state serialization assumes 64-bit Real");
  const auto words = gen_.state();
  std::vector<std::uint64_t> state(words.begin(), words.end());
  state.push_back(chains_initialized_ ? 1 : 0);
  if (chains_initialized_) {
    const std::size_t c = config_.num_chains;
    const std::size_t n = model_.num_spins();
    state.reserve(state.size() + c * n + c);
    for (std::size_t chain = 0; chain < c; ++chain)
      for (std::size_t j = 0; j < n; ++j)
        state.push_back(std::bit_cast<std::uint64_t>(states_(chain, j)));
    for (std::size_t chain = 0; chain < c; ++chain)
      state.push_back(std::bit_cast<std::uint64_t>(state_log_psi_[chain]));
  }
  return state;
}

void MetropolisSampler::restore_state(const std::vector<std::uint64_t>& state) {
  const std::size_t c = config_.num_chains;
  const std::size_t n = model_.num_spins();
  VQMC_REQUIRE(state.size() == 5 || state.size() == 5 + c * n + c,
               name() + ": sampler state size mismatch");
  gen_.set_state({state[0], state[1], state[2], state[3]});
  chains_initialized_ = state[4] != 0;
  if (chains_initialized_) {
    VQMC_REQUIRE(state.size() == 5 + c * n + c,
                 name() + ": chain state missing from sampler state");
    std::size_t pos = 5;
    for (std::size_t chain = 0; chain < c; ++chain)
      for (std::size_t j = 0; j < n; ++j)
        states_(chain, j) = std::bit_cast<Real>(state[pos++]);
    for (std::size_t chain = 0; chain < c; ++chain)
      state_log_psi_[chain] = std::bit_cast<Real>(state[pos++]);
  }
}

void MetropolisSampler::restart_chains() {
  const std::size_t n = model_.num_spins();
  for (std::size_t chain = 0; chain < config_.num_chains; ++chain)
    for (std::size_t j = 0; j < n; ++j)
      states_(chain, j) = rng::bernoulli(gen_, 0.5) ? Real(1) : Real(0);
  model_.log_psi_ws(states_, state_log_psi_.span(), ws_);
  ++stats_.forward_passes;
  chains_initialized_ = true;
}

void MetropolisSampler::step() {
  const std::size_t n = model_.num_spins();
  const std::size_t c = config_.num_chains;

  // Propose per chain: a single-site flip or a magnetization-conserving
  // pair exchange.
  for (std::size_t chain = 0; chain < c; ++chain) {
    auto src = states_.row(chain);
    auto dst = proposals_.row(chain);
    std::copy(src.begin(), src.end(), dst.begin());
    if (config_.proposal == ProposalKind::PairExchange) {
      // Pick a random up site and a random down site by index-within-class;
      // the swap proposal is symmetric, so no Hastings correction is needed.
      std::size_t ups = 0;
      for (std::size_t j = 0; j < n; ++j) ups += dst[j] > Real(0.5) ? 1u : 0u;
      if (ups > 0 && ups < n) {
        std::size_t up_pick = std::size_t(rng::uniform_index(gen_, ups));
        std::size_t down_pick =
            std::size_t(rng::uniform_index(gen_, n - ups));
        std::size_t up_site = n, down_site = n;
        for (std::size_t j = 0; j < n; ++j) {
          if (dst[j] > Real(0.5)) {
            if (up_pick-- == 0) up_site = j;
          } else {
            if (down_pick-- == 0) down_site = j;
          }
        }
        dst[up_site] = 0;
        dst[down_site] = 1;
        flip_sites_[chain] = up_site;
        continue;
      }
      // Fully polarized: fall through to a single flip so the chain can
      // still move (and, from a mixed state, re-enter the sector).
    }
    const std::size_t site = std::size_t(rng::uniform_index(gen_, n));
    flip_sites_[chain] = site;
    dst[site] = 1 - dst[site];
  }

  // One batched forward pass evaluates every chain's proposal.
  model_.log_psi_ws(proposals_, proposal_log_psi_.span(), ws_);
  ++stats_.forward_passes;

  // MH accepts with min(1, pi'/pi) = min(1, e^{2 dlogpsi}); heat bath with
  // pi'/(pi + pi') = sigmoid(2 dlogpsi). Both leave pi invariant.
  for (std::size_t chain = 0; chain < c; ++chain) {
    ++stats_.proposals;
    if (!std::isfinite(proposal_log_psi_[chain])) {
      // A NaN/inf log-psi must never enter the chain state: a NaN acceptance
      // ratio silently poisons every later step, and +inf would be accepted
      // with certainty. Reject outright and count the event.
      ++stats_.nonfinite_rejections;
      continue;
    }
    const Real dlog = proposal_log_psi_[chain] - state_log_psi_[chain];
    bool accept;
    if (config_.rule == AcceptanceRule::HeatBath) {
      accept = rng::uniform01(gen_) < sigmoid(2 * dlog);
    } else {
      accept = dlog >= 0 || rng::uniform01(gen_) < std::exp(2 * dlog);
    }
    if (accept) {
      ++stats_.accepted;
      auto src = proposals_.row(chain);
      auto dst = states_.row(chain);
      std::copy(src.begin(), src.end(), dst.begin());
      state_log_psi_[chain] = proposal_log_psi_[chain];
    }
  }
}

void MetropolisSampler::sample_ws(Matrix& out,
                                  WavefunctionModel::Workspace* ws) {
  TELEMETRY_SPAN("sample.mcmc");
  if (ws == nullptr) {
    if (!own_ws_) own_ws_ = model_.make_workspace();
    ws = own_ws_.get();
  }
  ws_ = ws;
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
    if (!config_.persistent_chains || !chains_initialized_) {
      restart_chains();
      for (std::size_t i = 0; i < config_.burn_in; ++i) step();
    } else {
      // Persistent chains still need a fresh log-psi: the model parameters
      // have typically changed since the previous call.
      model_.log_psi_ws(states_, state_log_psi_.span(), ws_);
      ++stats_.forward_passes;
      // Optional re-equilibration toward the updated distribution (see
      // MetropolisConfig::reburn_in for the bias trade-off).
      for (std::size_t i = 0; i < config_.reburn_in; ++i) step();
    }
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
        auto src = states_.row(chain);
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
