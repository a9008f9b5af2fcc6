#include "nn/deep_made.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "tensor/kernels.hpp"

namespace vqmc {

namespace {
constexpr Real kProbEps = 1e-12;
}  // namespace

DeepMade::DeepMade(std::size_t n, std::size_t hidden, std::size_t depth)
    : n_(n),
      h_(hidden),
      depth_(depth),
      params_(hidden * n + hidden +                       // first layer
              (depth - 1) * (hidden * hidden + hidden) +  // deeper layers
              n * hidden + n) {                           // output layer
  VQMC_REQUIRE(n_ >= 2, "DeepMADE: need at least 2 spins");
  VQMC_REQUIRE(h_ >= 1, "DeepMADE: hidden size must be positive");
  VQMC_REQUIRE(depth_ >= 1, "DeepMADE: depth must be >= 1");

  // Made's degree order in every hidden layer: unit t of a deeper layer
  // reads the units of degree <= m_t below it, a prefix of that layer.
  plan_ = MaskedPlan(n_, h_);
  hidden_len_.resize(h_);
  for (std::size_t t = 0; t < h_; ++t)
    hidden_len_[t] = plan_.degree_end[plan_.degree[t]];
  initialize(0);
}

std::size_t DeepMade::w_offset(std::size_t layer) const {
  VQMC_ASSERT(layer < depth_, "DeepMADE: layer out of range");
  if (layer == 0) return 0;
  return h_ * n_ + h_ + (layer - 1) * (h_ * h_ + h_);
}

std::size_t DeepMade::b_offset(std::size_t layer) const {
  return w_offset(layer) + (layer == 0 ? h_ * n_ : h_ * h_);
}

std::size_t DeepMade::w_out_offset() const {
  return h_ * n_ + h_ + (depth_ - 1) * (h_ * h_ + h_);
}

std::size_t DeepMade::b_out_offset() const { return w_out_offset() + n_ * h_; }

void DeepMade::initialize(std::uint64_t seed) {
  rng::Xoshiro256 gen(seed ^ 0x444d414445ULL);  // "DMADE"
  Real* p = params_.data();
  const Real s_in = 1 / std::sqrt(Real(n_));
  const Real s_hid = 1 / std::sqrt(Real(h_));
  for (std::size_t i = 0; i < h_ * n_; ++i) p[i] = rng::uniform(gen, -s_in, s_in);
  for (std::size_t i = 0; i < h_; ++i) p[h_ * n_ + i] = 0;
  for (std::size_t layer = 1; layer < depth_; ++layer) {
    Real* w = params_.data() + w_offset(layer);
    for (std::size_t i = 0; i < h_ * h_; ++i)
      w[i] = rng::uniform(gen, -s_hid, s_hid);
    Real* b = params_.data() + b_offset(layer);
    for (std::size_t i = 0; i < h_; ++i) b[i] = 0;
  }
  Real* w = params_.data() + w_out_offset();
  for (std::size_t i = 0; i < n_ * h_; ++i)
    w[i] = rng::uniform(gen, -s_hid, s_hid);
  Real* b = params_.data() + b_out_offset();
  for (std::size_t i = 0; i < n_; ++i) b[i] = 0;
}

void DeepMade::forward(const Matrix& batch, Workspace& ws, Matrix& p) const {
  VQMC_REQUIRE(batch.cols() == n_, "DeepMADE: batch has wrong spin count");
  const std::size_t bs = batch.rows();
  ws.pre.resize(depth_);
  ws.post.resize(depth_);

  for (std::size_t layer = 0; layer < depth_; ++layer) {
    ensure_shape(ws.pre[layer], bs, h_);
    gemm_nt_prefix(layer == 0 ? batch : ws.post[layer - 1],
                   layer_weights(layer), layer_lengths(layer), ws.pre[layer]);
    add_row_broadcast(ws.pre[layer],
                      std::span<const Real>(params_.data() + b_offset(layer), h_));
    ws.post[layer] = ws.pre[layer];
    relu_inplace(ws.post[layer]);
  }
  ensure_shape(p, bs, n_);
  gemm_nt_prefix(ws.post[depth_ - 1], out_weights(), plan_.degree_end, p);
  add_row_broadcast(p,
                    std::span<const Real>(params_.data() + b_out_offset(), n_));
  sigmoid_inplace(p);
}

void DeepMade::conditionals(const Matrix& batch, Matrix& out,
                            WavefunctionModel::Workspace* caller_ws) const {
  Workspace local;
  forward(batch, workspace_or(caller_ws, local), out);
}

void DeepMade::log_psi_ws(const Matrix& batch, std::span<Real> out,
                          WavefunctionModel::Workspace* caller_ws) const {
  Workspace local;
  Workspace& ws = workspace_or(caller_ws, local);
  VQMC_REQUIRE(out.size() == batch.rows(), "DeepMADE: output size mismatch");
  forward(batch, ws, ws.p);
  const std::size_t bs = batch.rows();
#pragma omp parallel for schedule(static)
  for (std::size_t k = 0; k < bs; ++k) {
    out[k] = bernoulli_log_likelihood(batch.row(k), ws.p.row(k).data(),
                                      kProbEps) / 2;
  }
}

void DeepMade::accumulate_log_psi_gradient_ws(
    const Matrix& batch, std::span<const Real> coeff, std::span<Real> grad,
    WavefunctionModel::Workspace* caller_ws) const {
  Workspace local;
  Workspace& ws = workspace_or(caller_ws, local);
  const std::size_t bs = batch.rows();
  VQMC_REQUIRE(coeff.size() == bs, "DeepMADE: coefficient size mismatch");
  VQMC_REQUIRE(grad.size() == num_parameters(),
               "DeepMADE: gradient size mismatch");

  forward(batch, ws, ws.p);

  // Output-layer gradient signal.
  ensure_shape(ws.g_out, bs, n_);
#pragma omp parallel for schedule(static)
  for (std::size_t k = 0; k < bs; ++k) {
    const Real* x = batch.row(k).data();
    const Real* p = ws.p.row(k).data();
    Real* g = ws.g_out.row(k).data();
    const Real c = coeff[k] / 2;
    for (std::size_t i = 0; i < n_; ++i) g[i] = c * (x[i] - p[i]);
  }

  // Output layer: weight gradient in place, only inside the mask prefixes.
  gemm_tn_accumulate_prefix(ws.g_out, ws.post[depth_ - 1], plan_.degree_end,
                            MatrixView(grad.data() + w_out_offset(), n_, h_));
  column_sum_accumulate(ws.g_out, grad.subspan(b_out_offset(), n_));

  // Back through hidden layers, reading each layer's weights in place.
  ensure_shape(ws.g, bs, h_);
  gemm_nn_prefix(ws.g_out, out_weights(), plan_.degree_end, ws.g);
  for (std::size_t layer = depth_; layer-- > 0;) {
    relu_backward_inplace(ws.pre[layer], ws.g);
    const Matrix& input = layer == 0 ? batch : ws.post[layer - 1];
    const std::size_t in_dim = layer == 0 ? n_ : h_;
    const std::span<const std::size_t> len = layer_lengths(layer);
    gemm_tn_accumulate_prefix(
        ws.g, input, len, MatrixView(grad.data() + w_offset(layer), h_, in_dim));
    column_sum_accumulate(ws.g, grad.subspan(b_offset(layer), h_));

    if (layer > 0) {
      ensure_shape(ws.g_prev, bs, h_);
      gemm_nn_prefix(ws.g, layer_weights(layer), len, ws.g_prev);
      std::swap(ws.g, ws.g_prev);
    }
  }
}

}  // namespace vqmc
