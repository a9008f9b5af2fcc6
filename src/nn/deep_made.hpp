#pragma once

/// \file deep_made.hpp
/// \brief Depth-generalized MADE: an arbitrary stack of masked hidden
/// layers.
///
/// The paper's production architecture uses a single masked hidden layer
/// (see made.hpp); deeper stacks are the natural capacity extension the
/// original MADE paper (Germain et al. 2015) describes.  Every hidden
/// layer stores its units in Made's ascending degree order (MaskedPlan).
/// Masks between hidden layers connect unit k (degree m_k) to unit j of the
/// previous layer (degree m'_j) iff m_k >= m'_j, which preserves the
/// autoregressive property through any depth; the same normalization /
/// exact-sampling guarantees as the shallow model follow.  In degree order
/// every mask row is a prefix: [0, m_k) of the inputs, [0, degree_end[m_k])
/// of the layer below, and [0, degree_end[i]) of the last layer for
/// output i.
///
/// Parameter layout:
///   [ W_1 (h x n) | b_1 (h) | W_2..W_D (h x h) | b_2..b_D (h) each
///     | W_out (n x h) | b_out (n) ]
///
/// Like Made, evaluation runs through the masked compute plan (DESIGN.md
/// §5f): per-mask prefix lengths built from the degree counts at
/// construction (no dense mask) drive the prefix kernels, which read the
/// weights and accumulate gradients in place in the flat vectors.  No
/// derived copy of the weights is kept, so the same thread-safety rules as
/// made.hpp apply and a write through a held parameters() span is seen by
/// the next evaluation.
///
/// Evaluations (wavefunction.hpp): log psi, the gradient and the
/// conditionals run on the caller's DeepMade::Workspace when it passes one
/// (workspace_or), else on call-local scratch.  Per-sample gradients and
/// the Gram are WavefunctionModel's defaults, one one-row gradient per
/// sample.

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/masked_plan.hpp"
#include "nn/wavefunction.hpp"

namespace vqmc {

/// MADE with `depth` masked hidden layers of width `hidden`.
class DeepMade final : public AutoregressiveModel {
 public:
  /// \param n number of spins (>= 2)
  /// \param hidden hidden width (>= 1)
  /// \param depth number of hidden layers (>= 1; depth 1 == Made)
  DeepMade(std::size_t n, std::size_t hidden, std::size_t depth);

  /// Caller-owned evaluation scratch (activations + backprop signals).
  struct Workspace final : WavefunctionModel::Workspace {
    std::vector<Matrix> pre;   ///< pre-ReLU activations per hidden layer
    std::vector<Matrix> post;  ///< post-ReLU activations per hidden layer
    Matrix p;                  ///< conditionals
    Matrix g_out;              ///< output-layer signal
    Matrix g;                  ///< backprop signal (current layer)
    Matrix g_prev;             ///< backprop signal (previous layer)
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
  [[nodiscard]] std::string name() const override { return "DeepMADE"; }
  [[nodiscard]] std::unique_ptr<WavefunctionModel> clone() const override {
    return std::make_unique<DeepMade>(*this);
  }

  // Evaluations (wavefunction.hpp): scratch from workspace_or, so a null
  // or foreign `ws` works in call-local scratch.  Per-sample gradients and
  // the Gram are the base class's defaults.
  void log_psi_ws(const Matrix& batch, std::span<Real> out,
                  WavefunctionModel::Workspace* ws) const override;
  void accumulate_log_psi_gradient_ws(const Matrix& batch,
                                      std::span<const Real> coeff,
                                      std::span<Real> grad,
                                      WavefunctionModel::Workspace* ws)
      const override;

  // AutoregressiveModel interface.
  using AutoregressiveModel::conditionals;
  void conditionals(const Matrix& batch, Matrix& out,
                    WavefunctionModel::Workspace* ws) const override;

  [[nodiscard]] std::size_t hidden_size() const { return h_; }
  [[nodiscard]] std::size_t depth() const { return depth_; }

 private:
  // Offsets into the flat parameter vector.
  [[nodiscard]] std::size_t w_offset(std::size_t layer) const;
  [[nodiscard]] std::size_t b_offset(std::size_t layer) const;
  [[nodiscard]] std::size_t w_out_offset() const;
  [[nodiscard]] std::size_t b_out_offset() const;
  /// Hidden layer `layer`'s weights (h x n or h x h), in the parameters.
  [[nodiscard]] ConstMatrixView layer_weights(std::size_t layer) const {
    return {params_.data() + w_offset(layer), h_, layer == 0 ? n_ : h_};
  }
  /// The output layer's weights (n x h), in the parameters.
  [[nodiscard]] ConstMatrixView out_weights() const {
    return {params_.data() + w_out_offset(), n_, h_};
  }

  /// Row lengths of hidden layer `layer`'s mask (input mask for layer 0).
  [[nodiscard]] std::span<const std::size_t> layer_lengths(
      std::size_t layer) const {
    return layer == 0 ? plan_.degree : hidden_len_;
  }

  void forward(const Matrix& batch, Workspace& ws, Matrix& p) const;

  std::size_t n_;
  std::size_t h_;
  std::size_t depth_;
  Vector params_;
  MaskedPlan plan_;  ///< input (degree) and output (degree_end) rows
  /// Hidden-to-hidden row lengths: unit t reads the units of degree <= m_t
  /// below it, degree_end[m_t] of them.
  std::vector<std::size_t> hidden_len_;
};

}  // namespace vqmc
