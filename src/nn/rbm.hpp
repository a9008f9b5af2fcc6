#pragma once

/// \file rbm.hpp
/// \brief Restricted Boltzmann machine wavefunction (Carleo & Troyer 2017),
/// in the exact architecture of Section 5.1:
///
///   Input --[bs,n]--> FC_{n,h} --> Lncoshsum --[bs]--> Output1
///   Input --[bs,n]--> FC_{n,1} --> Add Output1 --[bs]--> Output
///
/// i.e. log psi(x) = sum_k log cosh(w_k . x + c_k) + (a . x + a0).
///
/// The RBM is *unnormalized* — the Born distribution pi(x) is proportional
/// to exp(2 log psi(x)) with an intractable normalizer — so sampling must go
/// through MCMC (Section 2.2).  Parameter layout:
///
///   [ W (h x n) | c (h) | a (n) | a0 (1) ]
///
/// The forward reads W and the gradient accumulates dW in place in the
/// parameter and gradient vectors.  Each evaluation is one virtual over a
/// nullable workspace (wavefunction.hpp) and runs on the caller's
/// Rbm::Workspace when it passes one (workspace_or), so a repeated
/// evaluation allocates nothing; a null or foreign one gets call-local
/// scratch.  The model keeps no derived copy of W: the flip path and the
/// chain walk build their factor table in the workspace on each call.  The
/// same thread-safety rules as made.hpp apply, and a write through a held
/// parameters() span is seen by the next evaluation.
///
/// Gradients: a row of O is [t x^T | t | x | 1] with t = tanh(theta), one
/// tanh_inplace over the batch's theta.  Gram of the per-sample
/// log-derivatives (DESIGN.md §5m):
///   O O^T = (T T^T) .* (X X^T) + T T^T + X X^T + 1
///         = (T T^T + 1) .* (X X^T + 1),
/// two gemm_nt calls and no bs x d matrix.
///
/// Single-flip ratios (DESIGN.md §5l): a flip at site i moves theta by
/// v = +-W[:, i], and with p = sigmoid(2 theta), q = sigmoid(-2 theta),
/// F = e^{-2|v|},
///   cosh(theta + v) / cosh(theta) = e^{|v|} y,
///   y = p + q F (v >= 0),  p F + q (v < 0),
/// so log psi(x') - log psi(x) = +-a_i + sum_l |W_li| + sum_l log y_l.
/// Per call the workspace gets F with W's sign pattern in W^T's layout
/// (n x h) and sum_l |W_li| per site (rbm_flip_table, one vector exp per
/// lane); per row, theta, p and q; per flip, one fma and one multiply per
/// unit and one log per chunk of factors (rbm_flip_log_sums).
///
/// Chain walk (DESIGN.md §5n, Carleo and Troyer's look-up table): per
/// draw, walk_start builds theta, the p/q row and sum log cosh theta of the
/// c chains (one c-row gemm) and the flip table with W^T; a single flip is
/// scored by rbm_flip_log_sums on its chain's p/q row for its one site, a
/// pair exchange by one two-site shift of theta and one sum_log_cosh
/// against the chain's kept sum, both O(h); an accepted move adds its
/// shift (rows of W^T) to theta and recomputes the chain's p/q row, and an
/// accepted pair exchange keeps its scored sum.

#include <cstdint>
#include <memory>

#include "nn/wavefunction.hpp"

namespace vqmc {

/// RBM log-amplitude wavefunction.
class Rbm final : public WavefunctionModel {
 public:
  /// \param n number of visible spins
  /// \param hidden number of hidden units (the paper uses h = n)
  Rbm(std::size_t n, std::size_t hidden);

  /// Factors per lane and log of the flip path while 16 max|W| <= 700
  /// (max|W| up to 43.75); larger weights take shorter chunks.
  static constexpr std::size_t kMaxFlipChunk = 8;

  /// Caller-owned evaluation scratch (see WavefunctionModel::Workspace).
  struct Workspace final : WavefunctionModel::Workspace {
    /// bs x h hidden pre-activations (a chain walk: c x h, one per chain;
    /// the gradients overwrite them with tanh(theta), the batch gradient
    /// then with coeff_k tanh(theta))
    Matrix theta;
    Matrix xx;     ///< bs x bs, X X^T of the Gram
    // Flip-ratio and chain-walk scratch, O(n h) set-up per call or draw.
    Matrix wt;     ///< n x h, copysign(e^{-2|W_li|}, W_li) at (i, l)
    Vector abs_w;  ///< n, sum_l |W_li|
    /// threads x 2h, one row's sigmoid(+-2 theta) (rbm_flip_pq); a chain
    /// walk: c x 2h, one per chain
    Matrix pq;
    // Chain-walk state, rebuilt by walk_start.
    Matrix w_t;      ///< n x h, W^T: row i is the shift of a flip at site i
    std::size_t walk_chunk = kMaxFlipChunk;  ///< the walk's product chunk
    Vector shifted;  ///< h, theta of a pair-exchange proposal
    /// c: sum_l log cosh theta_l per chain, bitwise sum_log_cosh of the
    /// chain's theta row while log_cosh_fresh is set (walk_start, a pair
    /// exchange's accept); a single-flip accept clears the flag, and the
    /// chain's next pair exchange recomputes the sum.
    std::vector<Real> log_cosh;
    std::vector<char> log_cosh_fresh;  ///< c, 1 while log_cosh is exact
    std::vector<Real> proposal_log_cosh;  ///< c, the scored pair's sum
  };

  [[nodiscard]] std::unique_ptr<WavefunctionModel::Workspace> make_workspace()
      const override {
    return std::make_unique<Workspace>();
  }

  // WavefunctionModel interface.
  [[nodiscard]] std::size_t num_spins() const override { return n_; }
  [[nodiscard]] std::size_t num_parameters() const override {
    return params_.size();
  }
  [[nodiscard]] std::span<Real> parameters() override {
    return params_.span();
  }
  [[nodiscard]] std::span<const Real> parameters() const override {
    return params_.span();
  }
  void initialize(std::uint64_t seed) override;
  [[nodiscard]] std::string name() const override { return "RBM"; }
  [[nodiscard]] std::unique_ptr<WavefunctionModel> clone() const override {
    return std::make_unique<Rbm>(*this);
  }

  // Evaluations (wavefunction.hpp): scratch from workspace_or, so a null
  // or foreign `ws` works in call-local scratch.
  void log_psi_ws(const Matrix& batch, std::span<Real> out,
                  WavefunctionModel::Workspace* ws) const override;
  void accumulate_log_psi_gradient_ws(const Matrix& batch,
                                      std::span<const Real> coeff,
                                      std::span<Real> grad,
                                      WavefunctionModel::Workspace* ws)
      const override;
  void log_psi_gradient_per_sample_ws(const Matrix& batch, Matrix& out,
                                      WavefunctionModel::Workspace* ws)
      const override;
  void log_psi_gradient_gram(const Matrix& batch, Matrix& gram,
                             WavefunctionModel::Workspace* ws) const override;
  bool log_psi_flip_ratios(const Matrix& batch,
                           std::span<const std::size_t> sites, Matrix& out,
                           WavefunctionModel::Workspace* ws) const override;

  // Chain walk: `ws` must be an Rbm::Workspace (from make_workspace()),
  // which holds theta per chain between the calls.
  void walk_start(ChainWalk& walk,
                  WavefunctionModel::Workspace* ws) const override;
  void walk_score(ChainWalk& walk,
                  WavefunctionModel::Workspace* ws) const override;
  void walk_accept(ChainWalk& walk, std::size_t chain,
                   WavefunctionModel::Workspace* ws) const override;

  [[nodiscard]] std::size_t hidden_size() const { return h_; }

 private:
  /// W (h x n), in the parameter vector.
  [[nodiscard]] ConstMatrixView w() const { return {params_.data(), h_, n_}; }
  [[nodiscard]] const Real* c() const { return params_.data() + h_ * n_; }
  [[nodiscard]] const Real* a() const {
    return params_.data() + h_ * n_ + h_;
  }
  [[nodiscard]] Real a0() const { return params_[h_ * n_ + h_ + n_]; }

  /// theta = X W^T + c (bs x h): hidden pre-activations into ws.theta.
  void hidden_preactivations(const Matrix& batch, Workspace& ws) const;

  /// The flip path's factor table and site sums into ws.wt and ws.abs_w,
  /// and W^T into ws.w_t when `transpose`; returns the product chunk for
  /// rbm_flip_log_sums.
  std::size_t flip_table(Workspace& ws, bool transpose) const;

  std::size_t n_;
  std::size_t h_;
  Vector params_;
};

}  // namespace vqmc
