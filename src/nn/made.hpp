#pragma once

/// \file made.hpp
/// \brief MADE — masked autoencoder for distribution estimation
/// (Germain et al., ICML 2015), instantiated exactly as in the paper:
///
///   Input --[bs,n]--> MaskedFC1 --[bs,h]--> ReLU
///         --[bs,h]--> MaskedFC2 --[bs,n]--> Sigmoid --> conditionals
///
/// Output i is the conditional p(x_i = 1 | x_1..x_{i-1}); binary masks on
/// the two weight matrices remove every computational path from inputs
/// j >= i to output i, so all n conditionals come out of a single forward
/// pass and the joint factorizes as Eq. 7.  The wavefunction is
/// psi(x) = sqrt(pi(x)) with log pi(x) = sum_i [x_i log p_i +
/// (1 - x_i) log(1 - p_i)] — normalized by construction, enabling exact
/// autoregressive sampling (Algorithm 1).
///
/// Parameter vector layout (d = 2hn + h + n, as in Section 4):
///   [ W1 (h x n) | b1 (h) | W2 (n x h) | b2 (n) ]
///
/// The hidden degrees are the multiset {1 + (k mod (n-1)) : k < h}, stored
/// in ascending order (MaskedPlan): unit t has degree m_t, M1[t][j] = 1 iff
/// j + 1 <= m_t and M2[i][t] = 1 iff i + 1 > m_t.  Every W1 row is then a
/// prefix of the inputs, every W2 row a prefix of the units and every W1
/// column a suffix of them.  Output 0 has no incoming connections, so
/// p(x_1 = 1) = sigmoid(b2[0]) is a learned scalar, as it must be.
///
/// Masked compute plan (DESIGN.md §5f/§5g): the masks are kept only as the
/// prefix lengths of a MaskedPlan built from the degree counts at
/// construction, and every evaluation runs the prefix SIMD kernels over
/// them, skipping the ~50% of multiply-adds the masks zero out.  The
/// kernels read W1 and W2 in place in the parameter vector and accumulate
/// their gradients in place in the caller's gradient; no derived copy of
/// the weights exists.  Only W1's columns, which the vector does not store
/// contiguously, are packed (pack_w1_columns): into the caller's workspace
/// on each call by the paths that read them (the samplers' rank-1 update
/// and the flip path), and once by a frozen serve snapshot.  Results agree
/// with the dense masked path within the accumulation-order contract of
/// kernels.hpp.
///
/// Gram of the per-sample log-derivatives (DESIGN.md §5m): a row of O is
/// one masked outer product per layer, [M1.*(g1 x^T) | g1 | M2.*(g2 h1^T) |
/// g2], so <O_s, O_t> needs only the backward signals g1, g2, the inputs
/// and the hidden activations, swept once over the degrees (made_gram);
/// O (bs x d) is never formed.
///
/// Single-flip ratios (DESIGN.md §5l): flipping input i moves only the
/// hidden units of degree > i, and output j reads only the units of degree
/// <= j, so with the units in degree order each changed logit is one
/// contiguous dot over a shrinking triangle of W2's prefix rows, and the
/// flipped column is a contiguous run of the W1 column packing.  The
/// changed Bernoulli terms enter as their clamped probabilities, new and
/// old multiplied per chunk of kBernoulliChunk outputs with one log per
/// chunk; chunks break at absolute output indices, so a row's ratios are
/// bitwise the same in either lane layout.
///
/// Evaluations (wavefunction.hpp): each is one virtual over a nullable
/// workspace, and its body runs on the caller's Made::Workspace when it
/// passes one (workspace_or), else on call-local scratch.
///
/// Thread safety: every const method (log_psi, conditionals, the gradient
/// evaluations) uses only call-local scratch or a caller-owned Workspace
/// and reads the parameters in place; the model holds no shared mutable
/// state and no lock.  Concurrent read-only use of one Made instance from
/// multiple threads is therefore safe as long as no thread concurrently
/// writes parameters() or calls initialize().  The serve subsystem relies
/// on this (a TSan-covered test hammers one frozen instance from 8
/// threads).  A write through a held parameters() span is seen by the next
/// evaluation.

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/masked_plan.hpp"
#include "nn/wavefunction.hpp"

namespace vqmc {

/// The paper's default hidden width h = 5 (log n)^2 (natural log), >= 4.
std::size_t made_default_hidden(std::size_t n);

/// MADE autoregressive wavefunction.
class Made final : public AutoregressiveModel {
 public:
  /// \param n number of spins (>= 2)
  /// \param hidden hidden layer width h (>= 1)
  Made(std::size_t n, std::size_t hidden);

  /// Convenience: paper's h = 5 (log n)^2.
  static Made with_default_hidden(std::size_t n) {
    return Made(n, made_default_hidden(n));
  }

  /// Caller-owned evaluation scratch (see WavefunctionModel::Workspace):
  /// the forward activations and gradient signals, all bs-row shaped.
  /// Matrices are reshaped lazily, so one Workspace serves any batch size
  /// without reallocating once shapes stabilize.
  struct Workspace final : WavefunctionModel::Workspace {
    Matrix a1;   ///< bs x h, pre-ReLU
    Matrix h1;   ///< bs x h, post-ReLU
    Matrix p;    ///< bs x n, conditionals
    Matrix g2;   ///< bs x n, output-layer signal
    Matrix g1;   ///< bs x h, hidden-layer signal
    // Batched conditional-engine scratch (sample_conditionals_batched).
    // The running pre-activation block and its rectified tail copy use a
    // pad-to-8 column stride so every row starts cache-line-aligned — the
    // dot kernels otherwise split most vector loads at h = 239-ish strides.
    Vector logits;   ///< bs, per-site batched logits
    Matrix a1_pad;   ///< bs x pad8(h), running pre-activations
    Matrix h1_pad;   ///< bs x pad8(h), aligned-stride relu(a1) for the tail
    Matrix tail_logits;                ///< (n - frozen) x bs, frozen-tail pass
    std::vector<std::uint32_t> flips;  ///< rows that drew 1 at this site
    std::vector<std::uint64_t> flip_masks;  ///< per row, flips of a 64-site block
    std::vector<const Real*> col_ptrs;      ///< per block site, far column segment
    // Flip-ratio scratch (log_psi_flip_ratios), O(bs (h + n)) in all: the
    // logits, lane-major copies of each row group's inputs (one matrix row
    // per group, L = kFlipLanes lanes, and at least min(bs, L - 1) rows so
    // that a smaller batch's site tiles fit), and per-thread scratch of
    // the flip being evaluated.
    Matrix z;    ///< bs x n, logits of the sample rows
    Matrix xt;   ///< groups x n*L, configurations
    Matrix zt;   ///< groups x n*L, logits
    Matrix pt;   ///< groups x n*L, clamped probabilities of the bits
    Matrix at;   ///< groups x h*L, pre-activations
    Vector w1_cols;  ///< W1's column packing (pack_w1_columns), per call
    Matrix wt;   ///< threads x h*L, W1 columns of the flipped sites
    Matrix dht;  ///< threads x h*L, hidden-unit changes
    Matrix znt;  ///< threads x n*L, changed logits
    // Gram scratch (log_psi_gradient_gram): made_gram's lane-major
    // operands, one column per sample, padded to kGramLanes columns.
    Matrix gram_x;   ///< n x pad(bs), configurations
    Matrix gram_g2;  ///< n x pad(bs), output-layer signals
    Matrix gram_g1;  ///< h x pad(bs), hidden-layer signals
    Matrix gram_h1;  ///< h x pad(bs), hidden activations
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
  [[nodiscard]] std::string name() const override { return "MADE"; }
  [[nodiscard]] std::unique_ptr<WavefunctionModel> clone() const override {
    return std::make_unique<Made>(*this);
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

  // AutoregressiveModel interface.
  using AutoregressiveModel::conditionals;
  void conditionals(const Matrix& batch, Matrix& out,
                    WavefunctionModel::Workspace* ws) const override;

  [[nodiscard]] std::size_t hidden_size() const { return h_; }

  /// The mask geometry (used by the conditional engine and the tests):
  /// degree counts, the prefix lengths of M1 and M2 and the offsets of the
  /// W1 column packing.
  [[nodiscard]] const MaskedPlan& plan() const { return plan_; }

  /// Fill `out` with W1's column packing for the current parameters:
  /// column j's in-mask values, units [degree_end[j], h) in ascending
  /// order, at plan().w1_col_offsets[j].  `out` is resized to
  /// plan().w1_col_offsets[n] values only when its size differs, so a
  /// caller-held buffer is refilled without allocating.  FastMadeSampler
  /// and the flip path pack into their Workspace on each call;
  /// serve::ModelSnapshot packs once, as its parameters are frozen.
  void pack_w1_columns(Vector& out) const;

  // -- Read by the batched conditional engine --------------------------------
  // Ancestral sampling only ever *appends* one spin at a time, so the
  // engine (sampler/conditional_engine.hpp) seeds its running hidden
  // pre-activations with bias1(), updates them in O(h) per flipped input
  // from the W1 column packing instead of recomputing them in O(h n), and
  // evaluates each site's logit as a prefix dot over its W2 row plus
  // bias2().
  [[nodiscard]] std::span<const Real> bias1() const {
    return {b1(), h_};
  }
  [[nodiscard]] std::span<const Real> bias2() const {
    return {b2(), n_};
  }
  /// W2 (n x h), in the parameter vector.
  [[nodiscard]] ConstMatrixView w2() const {
    return {params_.data() + h_ * n_ + h_, n_, h_};
  }

 private:
  // Views into the flat parameter vector.
  [[nodiscard]] ConstMatrixView w1() const { return {params_.data(), h_, n_}; }
  [[nodiscard]] const Real* b1() const { return params_.data() + h_ * n_; }
  [[nodiscard]] const Real* b2() const {
    return params_.data() + h_ * n_ + h_ + n_ * h_;
  }

  /// Forward pass over the prefix plan; fills ws.a1 / ws.h1 and writes the
  /// conditionals into `p` (reshaped as needed; may alias ws.p or a
  /// caller-visible output).
  void forward(const Matrix& batch, Workspace& ws, Matrix& p) const;
  /// forward() up to the output logits: `z` gets the pre-sigmoid values.
  void forward_logits(const Matrix& batch, Workspace& ws, Matrix& z) const;
  /// forward(), then the backward signals of sum_k coeff_k log psi(x_k):
  /// ws.g2 = coeff_k (x - p) / 2 at the output logits and ws.g1 =
  /// relu'(a1) .* (g2 (M2 .* W2)) at the hidden pre-activations.  A null
  /// `coeff` means unit coefficients: the per-sample signals of the Gram.
  void backward(const Matrix& batch, const Real* coeff, Workspace& ws) const;

  std::size_t n_;
  std::size_t h_;
  Vector params_;
  MaskedPlan plan_;
};

}  // namespace vqmc
