#include "nn/rnn.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "tensor/kernels.hpp"

namespace vqmc {

namespace {
constexpr Real kProbEps = 1e-12;
Real clamped_log(Real p) { return std::log(std::max(p, kProbEps)); }
}  // namespace

RnnWavefunction::RnnWavefunction(std::size_t n, std::size_t hidden)
    : n_(n), h_(hidden), params_(2 * hidden + hidden * hidden + 2 * hidden + 1) {
  VQMC_REQUIRE(n_ >= 2, "RNN: need at least 2 spins");
  VQMC_REQUIRE(h_ >= 1, "RNN: hidden size must be positive");
  initialize(0);
}

void RnnWavefunction::initialize(std::uint64_t seed) {
  rng::Xoshiro256 gen(seed ^ 0x524e4eULL);  // "RNN"
  Real* p = params_.data();
  const Real s_in = Real(0.5);
  const Real s_hh = Real(0.8) / std::sqrt(Real(h_));  // spectral-radius-ish
  for (std::size_t i = 0; i < 2 * h_; ++i) p[i] = rng::uniform(gen, -s_in, s_in);
  p += 2 * h_;
  for (std::size_t i = 0; i < h_ * h_; ++i)
    p[i] = rng::uniform(gen, -s_hh, s_hh);
  p += h_ * h_;
  for (std::size_t i = 0; i < h_; ++i) p[i] = 0;  // b_h
  p += h_;
  const Real s_p = 1 / std::sqrt(Real(h_));
  for (std::size_t i = 0; i < h_; ++i) p[i] = rng::uniform(gen, -s_p, s_p);
  p += h_;
  p[0] = 0;  // b_p
}

void RnnWavefunction::forward(const Matrix& batch, std::vector<Matrix>& hidden,
                              Matrix& p) const {
  VQMC_REQUIRE(batch.cols() == n_, "RNN: batch has wrong spin count");
  const std::size_t bs = batch.rows();
  hidden.assign(n_, Matrix());
  p = Matrix(bs, n_);

  const Real* win = w_in();
  const Real* whh = w_hh();
  const Real* bh = b_h();
  const Real* wp = w_p();
  const Real bp = b_p();

  for (std::size_t t = 0; t < n_; ++t) {
    hidden[t] = Matrix(bs, h_);
    Matrix& ht = hidden[t];
    const Matrix* prev = t > 0 ? &hidden[t - 1] : nullptr;
#pragma omp parallel for schedule(static)
    for (std::size_t k = 0; k < bs; ++k) {
      Real* h_row = ht.row(k).data();
      const Real* prev_row = prev ? prev->row(k).data() : nullptr;
      // One-hot of the previous spin; zero vector at t = 0.
      const bool has_input = t > 0;
      const std::size_t onehot =
          has_input && batch(k, t - 1) > Real(0.5) ? 1u : 0u;
      for (std::size_t l = 0; l < h_; ++l) {
        Real a = bh[l];
        if (has_input) a += win[l * 2 + onehot];
        if (prev_row != nullptr) {
          const Real* whh_row = whh + l * h_;
          for (std::size_t m = 0; m < h_; ++m) a += whh_row[m] * prev_row[m];
        }
        h_row[l] = std::tanh(a);
      }
      Real logit = bp;
      for (std::size_t l = 0; l < h_; ++l) logit += wp[l] * h_row[l];
      p(k, t) = sigmoid(logit);
    }
  }
}

void RnnWavefunction::conditionals(const Matrix& batch, Matrix& out,
                                   Workspace* ws) const {
  (void)ws;
  std::vector<Matrix> hidden;
  forward(batch, hidden, out);
}

void RnnWavefunction::log_psi_ws(const Matrix& batch, std::span<Real> out,
                                 Workspace* ws) const {
  (void)ws;
  VQMC_REQUIRE(out.size() == batch.rows(), "RNN: output size mismatch");
  std::vector<Matrix> hidden;
  Matrix p;
  forward(batch, hidden, p);
  const std::size_t bs = batch.rows();
#pragma omp parallel for schedule(static)
  for (std::size_t k = 0; k < bs; ++k) {
    Real log_pi = 0;
    for (std::size_t t = 0; t < n_; ++t) {
      const Real x = batch(k, t);
      log_pi += x * clamped_log(p(k, t)) + (1 - x) * clamped_log(1 - p(k, t));
    }
    out[k] = log_pi / 2;
  }
}

void RnnWavefunction::accumulate_log_psi_gradient_ws(
    const Matrix& batch, std::span<const Real> coeff, std::span<Real> grad,
    Workspace* ws) const {
  (void)ws;
  const std::size_t bs = batch.rows();
  VQMC_REQUIRE(coeff.size() == bs, "RNN: coefficient size mismatch");
  VQMC_REQUIRE(grad.size() == num_parameters(), "RNN: gradient size mismatch");

  std::vector<Matrix> hidden;
  Matrix p;
  forward(batch, hidden, p);

  const Real* whh = w_hh();
  const Real* wp = w_p();
  const std::size_t off_whh = 2 * h_;
  const std::size_t off_bh = off_whh + h_ * h_;
  const std::size_t off_wp = off_bh + h_;
  const std::size_t off_bp = off_wp + h_;

  // Backprop through time. dh carries the gradient flowing into h_t.
  Matrix dh(bs, h_);
  Matrix da(bs, h_);
  for (std::size_t t = n_; t-- > 0;) {
    // Output head at step t: g = coeff/2 * (x_t - p_t).
#pragma omp parallel for schedule(static)
    for (std::size_t k = 0; k < bs; ++k) {
      const Real g = coeff[k] / 2 * (batch(k, t) - p(k, t));
      Real* dh_row = dh.row(k).data();
      for (std::size_t l = 0; l < h_; ++l) dh_row[l] += g * wp[l];
    }
    // w_p / b_p gradients (sequential accumulation across the batch).
    for (std::size_t k = 0; k < bs; ++k) {
      const Real g = coeff[k] / 2 * (batch(k, t) - p(k, t));
      const Real* h_row = hidden[t].row(k).data();
      for (std::size_t l = 0; l < h_; ++l) grad[off_wp + l] += g * h_row[l];
      grad[off_bp] += g;
    }

    // Through tanh: da = dh .* (1 - h^2).
#pragma omp parallel for schedule(static)
    for (std::size_t k = 0; k < bs; ++k) {
      const Real* h_row = hidden[t].row(k).data();
      const Real* dh_row = dh.row(k).data();
      Real* da_row = da.row(k).data();
      for (std::size_t l = 0; l < h_; ++l)
        da_row[l] = dh_row[l] * (1 - h_row[l] * h_row[l]);
    }

    // Parameter gradients at step t.
    for (std::size_t k = 0; k < bs; ++k) {
      const Real* da_row = da.row(k).data();
      if (t > 0) {
        const std::size_t onehot = batch(k, t - 1) > Real(0.5) ? 1u : 0u;
        for (std::size_t l = 0; l < h_; ++l)
          grad[l * 2 + onehot] += da_row[l];
        const Real* prev_row = hidden[t - 1].row(k).data();
        for (std::size_t l = 0; l < h_; ++l) {
          Real* g_whh = grad.data() + off_whh + l * h_;
          const Real dal = da_row[l];
          for (std::size_t m = 0; m < h_; ++m) g_whh[m] += dal * prev_row[m];
        }
      }
      for (std::size_t l = 0; l < h_; ++l) grad[off_bh + l] += da_row[l];
    }

    // Propagate to the previous hidden state: dh_{t-1} = W_hh^T da_t.
    if (t > 0) {
      Matrix dh_prev(bs, h_);
#pragma omp parallel for schedule(static)
      for (std::size_t k = 0; k < bs; ++k) {
        const Real* da_row = da.row(k).data();
        Real* out_row = dh_prev.row(k).data();
        for (std::size_t m = 0; m < h_; ++m) {
          Real acc = 0;
          for (std::size_t l = 0; l < h_; ++l) acc += whh[l * h_ + m] * da_row[l];
          out_row[m] = acc;
        }
      }
      dh = std::move(dh_prev);
    }
  }
}

}  // namespace vqmc
