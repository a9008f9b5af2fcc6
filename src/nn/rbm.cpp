#include "nn/rbm.hpp"

#include <algorithm>
#include <cmath>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/error.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "tensor/kernels.hpp"

namespace vqmc {

Rbm::Rbm(std::size_t n, std::size_t hidden)
    : n_(n), h_(hidden), params_(hidden * n + hidden + n + 1) {
  VQMC_REQUIRE(n_ >= 1, "RBM: need at least 1 spin");
  VQMC_REQUIRE(h_ >= 1, "RBM: hidden size must be positive");
  initialize(0);
}

void Rbm::initialize(std::uint64_t seed) {
  rng::Xoshiro256 gen(seed ^ 0x52424dULL);  // "RBM"
  Real* p = params_.data();
  // Small random weights keep log cosh in its quadratic regime initially,
  // which approximates a near-uniform distribution (good starting point).
  const Real s = Real(0.05) / std::sqrt(Real(n_));
  for (std::size_t i = 0; i < h_ * n_; ++i) p[i] = rng::uniform(gen, -s, s);
  p += h_ * n_;
  for (std::size_t i = 0; i < h_; ++i) p[i] = rng::uniform(gen, -0.01, 0.01);
  p += h_;
  for (std::size_t i = 0; i < n_; ++i) p[i] = rng::uniform(gen, -0.01, 0.01);
  p += n_;
  p[0] = 0;  // a0
}

void Rbm::hidden_preactivations(const Matrix& batch, Workspace& ws) const {
  VQMC_REQUIRE(batch.cols() == n_, "RBM: batch has wrong spin count");
  ensure_shape(ws.theta, batch.rows(), h_);
  gemm_nt(batch, w(), ws.theta);
  add_row_broadcast(ws.theta, std::span<const Real>(c(), h_));
}

void Rbm::log_psi_ws(const Matrix& batch, std::span<Real> out,
                     WavefunctionModel::Workspace* caller_ws) const {
  Workspace local;
  Workspace& ws = workspace_or(caller_ws, local);
  VQMC_REQUIRE(out.size() == batch.rows(), "RBM: output size mismatch");
  hidden_preactivations(batch, ws);
  const std::size_t bs = batch.rows();
  const Real* pa = a();
  const Real bias0 = a0();
#pragma omp parallel for schedule(static)
  for (std::size_t k = 0; k < bs; ++k) {
    Real acc = bias0 + sum_log_cosh(ws.theta.row(k));
    const Real* x = batch.row(k).data();
    for (std::size_t j = 0; j < n_; ++j) acc += pa[j] * x[j];
    out[k] = acc;
  }
}

std::size_t Rbm::flip_table(Workspace& ws, bool transpose) const {
  // g(i, l) = copysign(e^{-2|W_li|}, W_li) in W^T's layout, so each flip
  // reads one contiguous row, and sum_l |W_li|.
  ensure_shape(ws.wt, n_, h_);
  if (ws.abs_w.size() != n_) ws.abs_w = Vector(n_);
  if (transpose) ensure_shape(ws.w_t, n_, h_);
  const Real max_abs = rbm_flip_table(w(), ws.wt, ws.abs_w.span(),
                                      transpose ? &ws.w_t : nullptr);
  // Every factor is at least e^{-2 max|W|}, so a product of `chunk` of
  // them stays normal while 2 chunk max|W| <= 700.
  if (2 * Real(kMaxFlipChunk) * max_abs <= 700) return kMaxFlipChunk;
  return std::max<std::size_t>(1, std::size_t(350 / max_abs));
}

bool Rbm::log_psi_flip_ratios(const Matrix& batch,
                              std::span<const std::size_t> sites, Matrix& out,
                              WavefunctionModel::Workspace* caller_ws) const {
  Workspace local;
  Workspace& ws = workspace_or(caller_ws, local);
  VQMC_REQUIRE(batch.cols() == n_, "RBM: batch has wrong spin count");
  const std::size_t bs = batch.rows();
  const std::size_t m = sites.size();
  VQMC_REQUIRE(out.rows() == bs && out.cols() == m,
               "RBM: flip-ratio output shape mismatch");
  for (const std::size_t i : sites)
    VQMC_REQUIRE(i < n_, "RBM: flip site out of range");
  if (bs == 0 || m == 0) return true;
  const std::size_t chunk = flip_table(ws, false);
  hidden_preactivations(batch, ws);
#ifdef _OPENMP
  const std::size_t threads = std::size_t(omp_get_max_threads());
#else
  const std::size_t threads = 1;
#endif
  ensure_shape(ws.pq, threads, 2 * h_);
  const Real* pa = a();
#pragma omp parallel for schedule(static)
  for (std::size_t k = 0; k < bs; ++k) {
#ifdef _OPENMP
    const std::size_t thread = std::size_t(omp_get_thread_num());
#else
    const std::size_t thread = 0;
#endif
    const Real* x = batch.row(k).data();
    Real* ratio = out.row(k).data();
    const std::span<Real> pq = ws.pq.row(thread);
    rbm_flip_pq(ws.theta.row(k), pq);
    rbm_flip_log_sums(pq, ws.wt, sites, x, chunk, ratio);
    // A 0 -> 1 flip adds a_i to the visible term.
    for (std::size_t q = 0; q < m; ++q) {
      const std::size_t i = sites[q];
      const Real hidden = ws.abs_w[i] + ratio[q];
      ratio[q] = x[i] == 0 ? hidden + pa[i] : hidden - pa[i];
    }
  }
  return true;
}

void Rbm::accumulate_log_psi_gradient_ws(
    const Matrix& batch, std::span<const Real> coeff, std::span<Real> grad,
    WavefunctionModel::Workspace* caller_ws) const {
  Workspace local;
  Workspace& ws = workspace_or(caller_ws, local);
  const std::size_t bs = batch.rows();
  VQMC_REQUIRE(coeff.size() == bs, "RBM: coefficient size mismatch");
  VQMC_REQUIRE(grad.size() == num_parameters(), "RBM: gradient size mismatch");

  // t(k, l) = coeff_k * tanh(theta_{k,l}), the per-hidden-unit gradients,
  // in place over theta.
  hidden_preactivations(batch, ws);
  tanh_inplace(ws.theta);
#pragma omp parallel for schedule(static)
  for (std::size_t k = 0; k < bs; ++k) {
    Real* t = ws.theta.row(k).data();
    for (std::size_t l = 0; l < h_; ++l) t[l] *= coeff[k];
  }

  // dW = t^T X, in place into grad's W block; dc = column sums of t.
  gemm_tn_accumulate(ws.theta, batch, MatrixView(grad.data(), h_, n_));
  column_sum_accumulate(ws.theta, grad.subspan(h_ * n_, h_));

  // da_j = sum_k coeff_k x_{k,j}; da0 = sum_k coeff_k.
  Real* ga = grad.data() + h_ * n_ + h_;
  Real c_sum = 0;
  for (std::size_t k = 0; k < bs; ++k) {
    const Real* x = batch.row(k).data();
    const Real ck = coeff[k];
    c_sum += ck;
    for (std::size_t j = 0; j < n_; ++j) ga[j] += ck * x[j];
  }
  grad[h_ * n_ + h_ + n_] += c_sum;
}

void Rbm::log_psi_gradient_per_sample_ws(
    const Matrix& batch, Matrix& out,
    WavefunctionModel::Workspace* caller_ws) const {
  Workspace local;
  Workspace& ws = workspace_or(caller_ws, local);
  const std::size_t bs = batch.rows();
  const std::size_t d = num_parameters();
  VQMC_REQUIRE(out.rows() == bs && out.cols() == d,
               "RBM: per-sample gradient shape mismatch");
  hidden_preactivations(batch, ws);
  tanh_inplace(ws.theta);

  const std::size_t off_c = h_ * n_;
  const std::size_t off_a = off_c + h_;
  const std::size_t off_a0 = off_a + n_;

#pragma omp parallel for schedule(static)
  for (std::size_t k = 0; k < bs; ++k) {
    const Real* x = batch.row(k).data();
    const Real* t = ws.theta.row(k).data();
    Real* o = out.row(k).data();
    for (std::size_t l = 0; l < h_; ++l) {
      const Real tl = t[l];
      o[off_c + l] = tl;
      Real* row = o + l * n_;
      for (std::size_t j = 0; j < n_; ++j) row[j] = tl * x[j];
    }
    for (std::size_t j = 0; j < n_; ++j) o[off_a + j] = x[j];
    o[off_a0] = 1;
  }
}

void Rbm::log_psi_gradient_gram(const Matrix& batch, Matrix& gram,
                                WavefunctionModel::Workspace* caller_ws) const {
  Workspace local;
  Workspace& ws = workspace_or(caller_ws, local);
  const std::size_t bs = batch.rows();
  VQMC_REQUIRE(gram.rows() == bs && gram.cols() == bs,
               "RBM: Gram must be bs x bs");
  hidden_preactivations(batch, ws);
  tanh_inplace(ws.theta);
  // The W block's inner product factors: <t_s x_s^T, t_t x_t^T> =
  // (t_s . t_t)(x_s . x_t); c, a and a0 add t_s . t_t, x_s . x_t and 1.
  ensure_shape(ws.xx, bs, bs);
  gemm_nt(ws.theta, ws.theta, gram);
  gemm_nt(batch, batch, ws.xx);
  Real* g = gram.data();
  const Real* xx = ws.xx.data();
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < bs * bs; ++i) g[i] = (g[i] + 1) * (xx[i] + 1);
}

namespace {

/// A walk keeps theta per chain in its workspace between calls, so a null
/// or foreign one is an error rather than a call-local fallback.
Rbm::Workspace& walk_workspace(WavefunctionModel::Workspace* ws) {
  auto* own = dynamic_cast<Rbm::Workspace*>(ws);
  VQMC_REQUIRE(own != nullptr,
               "RBM: a chain walk runs on a workspace from make_workspace()");
  return *own;
}

/// theta += the shift of `move` from state x: +-W[:, i] per moved site
/// (+ for a 0 -> 1 flip), read from W^T's row i, one axpy per site.
void add_move_shift(const WavefunctionModel::ChainMove& move, const Real* x,
                    const Matrix& w_t, std::span<Real> theta) {
  axpy(x[move.site] == 0 ? 1 : -1, w_t.row(move.site), theta);
  if (move.partner != move.site)
    axpy(x[move.partner] == 0 ? 1 : -1, w_t.row(move.partner), theta);
}

}  // namespace

void Rbm::walk_start(ChainWalk& walk, WavefunctionModel::Workspace* ws) const {
  Workspace& own = walk_workspace(ws);
  hidden_preactivations(walk.states, own);
  own.walk_chunk = flip_table(own, true);
  const std::size_t chains = walk.states.rows();
  ensure_shape(own.pq, chains, 2 * h_);
  own.log_cosh.resize(chains);
  own.log_cosh_fresh.assign(chains, 1);
  own.proposal_log_cosh.resize(chains);
  for (std::size_t chain = 0; chain < chains; ++chain) {
    rbm_flip_pq(own.theta.row(chain), own.pq.row(chain));
    own.log_cosh[chain] = sum_log_cosh(own.theta.row(chain));
  }
  if (own.shifted.size() != h_) own.shifted = Vector(h_);
}

void Rbm::walk_score(ChainWalk& walk, WavefunctionModel::Workspace* ws) const {
  Workspace& own = walk_workspace(ws);
  const Real* pa = a();
  for (std::size_t chain = 0; chain < walk.moves.size(); ++chain) {
    const ChainMove& move = walk.moves[chain];
    const Real* x = walk.states.row(chain).data();
    const std::span<const Real> theta = own.theta.row(chain);
    // A 0 -> 1 flip adds a_i to the visible term.
    const auto visible = [&](std::size_t i) {
      return x[i] == 0 ? pa[i] : -pa[i];
    };
    Real& ratio = walk.ratio[chain];
    if (move.partner == move.site) {
      const std::size_t i = move.site;
      rbm_flip_log_sums(own.pq.row(chain), own.wt, {&i, 1}, x,
                        own.walk_chunk, &ratio);
      ratio = own.abs_w[i] + ratio + visible(i);
    } else {
      std::copy(theta.begin(), theta.end(), own.shifted.begin());
      add_move_shift(move, x, own.w_t, own.shifted.span());
      if (!own.log_cosh_fresh[chain]) {
        own.log_cosh[chain] = sum_log_cosh(theta);
        own.log_cosh_fresh[chain] = 1;
      }
      own.proposal_log_cosh[chain] = sum_log_cosh(own.shifted.span());
      ratio = own.proposal_log_cosh[chain] - own.log_cosh[chain] +
              (visible(move.site) + visible(move.partner));
    }
  }
}

void Rbm::walk_accept(ChainWalk& walk, std::size_t chain,
                      WavefunctionModel::Workspace* ws) const {
  Workspace& own = walk_workspace(ws);
  const ChainMove& move = walk.moves[chain];
  add_move_shift(move, walk.states.row(chain).data(), own.w_t,
                 own.theta.row(chain));
  rbm_flip_pq(own.theta.row(chain), own.pq.row(chain));
  // The same axpys walk_score applied to `shifted`, so theta now equals
  // the scored proposal's theta bitwise and a pair exchange keeps its sum.
  if (move.partner != move.site)
    own.log_cosh[chain] = own.proposal_log_cosh[chain];
  else
    own.log_cosh_fresh[chain] = 0;
}

}  // namespace vqmc
