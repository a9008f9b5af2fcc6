#pragma once

/// \file wavefunction.hpp
/// \brief Trial-wavefunction model interfaces.
///
/// A wavefunction model is a differentiable map theta -> psi_theta from
/// parameters to amplitudes psi_theta(x) over n-bit configurations.  The
/// library targets non-negative ground states (Perron–Frobenius, Section 2.1
/// of the paper), so models expose log |psi| directly.
///
/// Two families:
///  * `WavefunctionModel` — anything with log psi and gradients (RBM).
///    Generally unnormalized; sampling requires MCMC.
///  * `AutoregressiveModel` — additionally factorizes pi(x) = psi(x)^2 as a
///    product of conditionals computable in one forward pass (MADE), which
///    enables exact AUTO sampling and makes the model normalized.
///
/// Each evaluation is one virtual that takes a nullable, caller-owned
/// `Workspace*` (DESIGN.md §5f).  A model gets its scratch from
/// `workspace_or`: the caller's workspace when it belongs to the model's
/// family, else a call-local one.  The plain `log_psi`,
/// `accumulate_log_psi_gradient` and `log_psi_gradient_per_sample` are
/// non-virtual one-liners that pass null; the virtuals keep their `_ws`
/// suffix, so a plain call and an override never share a name.
///
/// Stochastic reconfiguration needs only the Gram matrix of the
/// per-sample log-derivatives, O O^T, never O itself
/// (`log_psi_gradient_gram`).
///
/// Local energies need log psi at every configuration connected to a
/// sample, and most Hamiltonian entries flip one site.  A model whose
/// amplitude changes locally under one flip overrides
/// `log_psi_flip_ratios` (MADE and RBM do); the local-energy engine sends
/// every single-site entry through it and evaluates flipped copies with
/// log_psi only for multi-site entries and for models without it
/// (DESIGN.md §5l).
///
/// Metropolis chains move one or two sites per proposal.  The chain walk
/// (`walk_start`, `walk_score`, `walk_accept`, DESIGN.md §5n) is
/// MetropolisSampler's one way to score proposals: the default runs one
/// batched log_psi over the c proposals and subtracts the chains' log psi,
/// and the RBM keeps theta per chain and scores a move in O(h).

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "tensor/matrix.hpp"
#include "tensor/vector.hpp"

namespace vqmc {

/// Differentiable trial wavefunction over n spins.
///
/// Parameters are exposed as one flat vector so optimizers and communicators
/// can treat every model uniformly (the paper's allreduce averages this flat
/// gradient of length d = 2hn + h + n for MADE).
class WavefunctionModel {
 public:
  virtual ~WavefunctionModel() = default;

  /// Opaque caller-owned evaluation scratch.  Models that allocate
  /// per-call temporaries (the MADE family's activation and gradient
  /// matrices, RBM's hidden pre-activations) keep them in a subclass of
  /// this and reuse them across calls when the caller threads one through
  /// the evaluations.  A workspace may be used by one call at a time;
  /// per-thread workspaces keep the const-method concurrency contract
  /// intact (the scratch moves from the callee's stack to the caller, it
  /// never becomes shared model state).
  class Workspace {
   public:
    virtual ~Workspace() = default;

    /// bs x d scratch of the default log_psi_gradient_gram (the explicit
    /// per-sample matrix); models that override the Gram never touch it.
    Matrix per_sample;
  };

  /// Reusable scratch for the evaluations; null when the model has none.
  [[nodiscard]] virtual std::unique_ptr<Workspace> make_workspace() const {
    return nullptr;
  }

  [[nodiscard]] virtual std::size_t num_spins() const = 0;
  [[nodiscard]] virtual std::size_t num_parameters() const = 0;

  /// The flat parameter vector, read and written in place.  No model keeps
  /// state derived from the values, so a write through any held span is
  /// seen by the next evaluation; a span stays valid for the model's
  /// lifetime.  Read-only callers use the const overload.
  [[nodiscard]] virtual std::span<Real> parameters() = 0;
  [[nodiscard]] virtual std::span<const Real> parameters() const = 0;

  /// Random parameter initialization (uniform +- 1/sqrt(fan_in) per layer).
  virtual void initialize(std::uint64_t seed) = 0;

  // -- Evaluations -----------------------------------------------------------
  // One virtual per evaluation.  `ws` is scratch from make_workspace(); it
  // may be null or belong to another model family, and a model then works
  // in call-local scratch (workspace_or below), so the results are
  // bitwise the same whatever is passed.  The trainer, the samplers and
  // the local-energy engine pass their workspace; the plain log_psi,
  // accumulate_log_psi_gradient and log_psi_gradient_per_sample pass null.

  /// log |psi_theta(x_k)| for each row x_k of the batch (bs x n) into
  /// `out` (length bs).
  virtual void log_psi_ws(const Matrix& batch, std::span<Real> out,
                          Workspace* ws) const = 0;

  /// grad += sum_k coeff[k] * d(log psi(x_k))/d(theta).
  /// This single primitive implements the energy gradient of Eq. 5: pass
  /// coeff[k] = 2 (l_k - L) / bs.
  virtual void accumulate_log_psi_gradient_ws(const Matrix& batch,
                                              std::span<const Real> coeff,
                                              std::span<Real> grad,
                                              Workspace* ws) const = 0;

  /// Per-sample log-derivatives O(k, :) = d(log psi(x_k))/d(theta), the
  /// ingredients of the Fisher/SR matrix (Eq. 5).  `out` must be bs x d.
  /// The default accumulates one row at a time with a unit coefficient
  /// through accumulate_log_psi_gradient_ws, on `ws` or, when it is null,
  /// on a workspace from make_workspace(); MADE and RBM fill O in closed
  /// form.
  virtual void log_psi_gradient_per_sample_ws(const Matrix& batch, Matrix& out,
                                              Workspace* ws) const;

  /// Gram matrix of the per-sample log-derivatives, gram = O O^T (bs x bs,
  /// uncentred): gram(s, t) = <d log psi(x_s)/d theta, d log psi(x_t)/d
  /// theta>.  Stochastic reconfiguration solves in sample space with it
  /// (DESIGN.md §5m).  The default fills O through
  /// log_psi_gradient_per_sample_ws into the workspace's `per_sample`
  /// scratch (a local matrix when `ws` is null) and multiplies it out with
  /// gemm_nt; MADE and RBM build the Gram from their layer factors and never
  /// form O.  Every override agrees with the default within a few ulps of
  /// the entries' magnitude, is exactly symmetric, and does not depend on
  /// the thread count.
  virtual void log_psi_gradient_gram(const Matrix& batch, Matrix& gram,
                                     Workspace* ws) const;

  /// Single-flip log-amplitude ratios:
  ///
  ///   out(k, q) = log|psi(x_k with site sites[q] flipped)| - log|psi(x_k)|
  ///
  /// for every row x_k of `batch` (bs x n) and every listed site (each
  /// < n); `out` must be bs x sites.size().  Each row's ratios depend only
  /// on that row, bitwise, whatever the batch around it or the thread
  /// count.  They agree with log_psi on explicitly flipped copies within
  /// kFlipRatioTolerance (core/local_energy.hpp).  Returns false, leaving
  /// `out` untouched, when the model has no such path — the default —
  /// and callers then evaluate flipped copies through log_psi.
  virtual bool log_psi_flip_ratios(const Matrix& batch,
                                   std::span<const std::size_t> sites,
                                   Matrix& out, Workspace* ws) const {
    (void)batch;
    (void)sites;
    (void)out;
    (void)ws;
    return false;
  }

  // -- Chain walk (MetropolisSampler, DESIGN.md §5n) --------------------------

  /// One chain's proposal: flip `site`, and `partner` as well unless it
  /// equals `site` (a pair exchange).
  struct ChainMove {
    std::size_t site = 0;
    std::size_t partner = 0;
  };

  /// The state of one chain walk, owned by the sampler.  A walk lasts one
  /// draw: walk_start rebuilds everything a model derives from its
  /// parameters, so nothing carries over a parameter write between draws.
  struct ChainWalk {
    Matrix states;     ///< c x n chain states, entries 0 or 1
    Matrix proposals;  ///< c x n: each state with its chain's move applied
    std::vector<ChainMove> moves;  ///< c, the moves being scored
    /// c: log|psi(proposal)| - log|psi(state)| per chain, NaN when the
    /// proposal's log psi is not finite (the sampler rejects it).
    Vector ratio;
    Vector log_psi;           ///< c: the default walk's log psi per chain
    Vector proposal_log_psi;  ///< c: the default walk's log psi per proposal
  };

  /// Begins a walk from walk.states.  `ws` comes from this model's
  /// make_workspace() (null when that returns null); the sampler passes
  /// the same one to every walk call of a draw and to nothing else, so a
  /// model may keep per-chain state in it.  Default: walk.log_psi from one
  /// log_psi_ws over the states.
  virtual void walk_start(ChainWalk& walk, Workspace* ws) const;

  /// Fills walk.ratio for walk.moves (walk.proposals holds the moved
  /// states).  Agrees with two full log_psi evaluations within
  /// kFlipRatioTolerance (core/local_energy.hpp) times max(1, |log psi|).
  /// Default: one batched log_psi_ws over the proposals minus
  /// walk.log_psi.
  virtual void walk_score(ChainWalk& walk, Workspace* ws) const;

  /// Chain `chain` moves to its scored proposal.  Called before the sampler
  /// writes the move into walk.states.  Default: walk.log_psi[chain] takes
  /// the proposal's log psi.
  virtual void walk_accept(ChainWalk& walk, std::size_t chain,
                           Workspace* ws) const;

  /// The evaluations in call-local scratch.
  void log_psi(const Matrix& batch, std::span<Real> out) const {
    log_psi_ws(batch, out, nullptr);
  }
  void accumulate_log_psi_gradient(const Matrix& batch,
                                   std::span<const Real> coeff,
                                   std::span<Real> grad) const {
    accumulate_log_psi_gradient_ws(batch, coeff, grad, nullptr);
  }
  void log_psi_gradient_per_sample(const Matrix& batch, Matrix& out) const {
    log_psi_gradient_per_sample_ws(batch, out, nullptr);
  }

  [[nodiscard]] virtual std::string name() const = 0;

  /// Deep copy (used to replicate the model across virtual devices).
  [[nodiscard]] virtual std::unique_ptr<WavefunctionModel> clone() const = 0;
};

/// Wavefunction whose Born distribution factorizes autoregressively
/// (Eq. 7): pi(x) = prod_i p_i(x_i | x_{<i}), which makes it normalized
/// and lets AUTO draw exact samples.
class AutoregressiveModel : public WavefunctionModel {
 public:
  /// All conditionals in one forward pass (the MADE trick): out(k, i) =
  /// p(x_i = 1 | x_{k,1}, ..., x_{k,i-1}).  Only entries j < i of row k
  /// influence out(k, i) — the autoregressive property, which tests verify.
  /// `ws` as for the evaluations above.
  virtual void conditionals(const Matrix& batch, Matrix& out,
                            Workspace* ws) const = 0;

  /// conditionals() in call-local scratch.  A model that overrides the
  /// virtual brings this back into scope with a using-declaration.
  void conditionals(const Matrix& batch, Matrix& out) const {
    conditionals(batch, out, nullptr);
  }
};

/// The caller's workspace when it is a `W` (the calling model's family),
/// else `local`: the one place where a model's evaluation falls back to
/// call-local scratch for a null or foreign workspace.
template <class W>
W& workspace_or(WavefunctionModel::Workspace* ws, W& local) {
  W* own = dynamic_cast<W*>(ws);
  return own != nullptr ? *own : local;
}

}  // namespace vqmc
