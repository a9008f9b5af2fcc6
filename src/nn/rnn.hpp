#pragma once

/// \file rnn.hpp
/// \brief Recurrent neural-network wavefunction (Hibat-Allah et al. 2020,
/// the autoregressive alternative the paper cites in Related Work).
///
/// A vanilla (Elman) recurrence over the spin sequence:
///
///   h_t = tanh(W_in e(x_{t-1}) + W_hh h_{t-1} + b_h),  h_{-1} = 0,
///   p_t = sigmoid(w_p . h_t + b_p) = p(x_t = 1 | x_{<t}),
///
/// where e(x) is the 2-dim one-hot encoding of the previous spin and the
/// first step feeds a zero vector (so p_1 is input-independent, as the
/// autoregressive factorization requires).  Like MADE the joint
/// distribution is normalized by construction and supports exact ancestral
/// sampling; unlike MADE, evaluating all conditionals takes n sequential
/// recurrence steps even for density evaluation (the trade-off the paper
/// notes for recurrent wavefunctions).
///
/// Parameter layout:
///   [ W_in (H x 2) | W_hh (H x H) | b_h (H) | w_p (H) | b_p (1) ]

#include <cstdint>
#include <vector>

#include "nn/wavefunction.hpp"

namespace vqmc {

/// Elman-RNN autoregressive wavefunction with hidden width `hidden`.
class RnnWavefunction final : public AutoregressiveModel {
 public:
  RnnWavefunction(std::size_t n, std::size_t hidden);

  // WavefunctionModel interface.
  [[nodiscard]] std::size_t num_spins() const override { return n_; }
  [[nodiscard]] std::size_t num_parameters() const override {
    return params_.size();
  }
  [[nodiscard]] std::span<Real> parameters() override { return params_.span(); }
  [[nodiscard]] std::span<const Real> parameters() const override {
    return params_.span();
  }
  void initialize(std::uint64_t seed) override;
  [[nodiscard]] std::string name() const override { return "RNN"; }
  [[nodiscard]] std::unique_ptr<WavefunctionModel> clone() const override {
    return std::make_unique<RnnWavefunction>(*this);
  }

  // Evaluations (wavefunction.hpp).  The RNN has no workspace: every
  // evaluation keeps its hidden states in call-local scratch and ignores
  // `ws`.  Per-sample gradients and the Gram are the base class's
  // defaults.
  void log_psi_ws(const Matrix& batch, std::span<Real> out,
                  Workspace* ws) const override;
  void accumulate_log_psi_gradient_ws(const Matrix& batch,
                                      std::span<const Real> coeff,
                                      std::span<Real> grad,
                                      Workspace* ws) const override;

  // AutoregressiveModel interface (teacher-forced; n recurrence steps).
  using AutoregressiveModel::conditionals;
  void conditionals(const Matrix& batch, Matrix& out,
                    Workspace* ws) const override;

  [[nodiscard]] std::size_t hidden_size() const { return h_; }

 private:
  // Parameter views.
  [[nodiscard]] const Real* w_in() const { return params_.data(); }
  [[nodiscard]] const Real* w_hh() const { return params_.data() + 2 * h_; }
  [[nodiscard]] const Real* b_h() const {
    return params_.data() + 2 * h_ + h_ * h_;
  }
  [[nodiscard]] const Real* w_p() const {
    return params_.data() + 2 * h_ + h_ * h_ + h_;
  }
  [[nodiscard]] Real b_p() const {
    return params_[2 * h_ + h_ * h_ + h_ + h_];
  }

  /// Teacher-forced pass storing every hidden state: hidden[t] is bs x H.
  void forward(const Matrix& batch, std::vector<Matrix>& hidden,
               Matrix& p) const;

  std::size_t n_;
  std::size_t h_;
  Vector params_;
};

}  // namespace vqmc
