#include "nn/made.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/error.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "tensor/kernels.hpp"

namespace vqmc {

namespace {

/// Conditionals are clamped away from {0,1} before logs; the gradient uses
/// the (x - p) form which needs no clamping.
constexpr Real kProbEps = 1e-12;

/// max(sel, eps): the clamped probability of one Bernoulli term, whose log
/// the log-likelihood adds (NaN stays NaN).
Real clamped(Real sel) { return sel < kProbEps ? kProbEps : sel; }

}  // namespace

std::size_t made_default_hidden(std::size_t n) {
  const double logn = std::log(double(n));
  return std::max<std::size_t>(4, std::size_t(std::lround(5.0 * logn * logn)));
}

Made::Made(std::size_t n, std::size_t hidden)
    : n_(n), h_(hidden), params_(2 * hidden * n + hidden + n) {
  VQMC_REQUIRE(n_ >= 2, "MADE: need at least 2 spins");
  VQMC_REQUIRE(h_ >= 1, "MADE: hidden size must be positive");
  plan_ = MaskedPlan(n_, h_);
  initialize(0);
}

void Made::initialize(std::uint64_t seed) {
  rng::Xoshiro256 gen(seed ^ 0x4d414445ULL);  // "MADE"
  Real* p = params_.data();
  const Real s1 = 1 / std::sqrt(Real(n_));
  for (std::size_t i = 0; i < h_ * n_; ++i) p[i] = rng::uniform(gen, -s1, s1);
  p += h_ * n_;
  for (std::size_t i = 0; i < h_; ++i) p[i] = 0;  // b1
  p += h_;
  const Real s2 = 1 / std::sqrt(Real(h_));
  for (std::size_t i = 0; i < n_ * h_; ++i) p[i] = rng::uniform(gen, -s2, s2);
  p += n_ * h_;
  for (std::size_t i = 0; i < n_; ++i) p[i] = 0;  // b2
}

void Made::pack_w1_columns(Vector& out) const {
  const std::size_t size = plan_.w1_col_offsets[n_];
  if (out.size() != size) out = Vector(size);
  // Column j's in-mask units are the suffix [degree_end[j], h).
  const std::vector<std::size_t>& lo = plan_.degree_end;
  Real* cv = out.data();
  const Real* w = w1().data();
  for (std::size_t j = 0; j < n_; ++j)
    for (std::size_t t = lo[j]; t < h_; ++t) *cv++ = w[t * n_ + j];
}

void Made::forward(const Matrix& batch, Workspace& ws, Matrix& p) const {
  forward_logits(batch, ws, p);
  sigmoid_inplace(p);
}

void Made::forward_logits(const Matrix& batch, Workspace& ws,
                          Matrix& z) const {
  VQMC_REQUIRE(batch.cols() == n_, "MADE: batch has wrong spin count");
  const std::size_t bs = batch.rows();

  // Both layers read their weight rows in place, each over its mask prefix.
  ensure_shape(ws.a1, bs, h_);
  gemm_nt_prefix(batch, w1(), plan_.degree, ws.a1);
  add_row_broadcast(ws.a1, bias1());
  ws.h1 = ws.a1;
  relu_inplace(ws.h1);

  ensure_shape(z, bs, n_);
  gemm_nt_prefix(ws.h1, w2(), plan_.degree_end, z);
  add_row_broadcast(z, bias2());
}

void Made::conditionals(const Matrix& batch, Matrix& out,
                        WavefunctionModel::Workspace* caller_ws) const {
  Workspace local;
  forward(batch, workspace_or(caller_ws, local), out);
}

void Made::log_psi_ws(const Matrix& batch, std::span<Real> out,
                      WavefunctionModel::Workspace* caller_ws) const {
  Workspace local;
  Workspace& ws = workspace_or(caller_ws, local);
  VQMC_REQUIRE(out.size() == batch.rows(), "MADE: output size mismatch");
  forward(batch, ws, ws.p);
  const std::size_t bs = batch.rows();
#pragma omp parallel for schedule(static)
  for (std::size_t k = 0; k < bs; ++k) {
    // psi = sqrt(pi); for binary x the Bernoulli likelihood selects the
    // same clamped-log terms the textbook x log p + (1-x) log(1-p) adds.
    out[k] = bernoulli_log_likelihood(batch.row(k), ws.p.row(k).data(),
                                      kProbEps) / 2;
  }
}

void Made::backward(const Matrix& batch, const Real* coeff,
                    Workspace& ws) const {
  forward(batch, ws, ws.p);
  const std::size_t bs = batch.rows();

  // d(log psi)/d(a2)_{k,i} = coeff_k * (x_{k,i} - p_{k,i}) / 2.
  ensure_shape(ws.g2, bs, n_);
#pragma omp parallel for schedule(static)
  for (std::size_t k = 0; k < bs; ++k) {
    const Real* x = batch.row(k).data();
    const Real* p = ws.p.row(k).data();
    Real* g = ws.g2.row(k).data();
    const Real c = coeff != nullptr ? coeff[k] / 2 : Real(0.5);
    for (std::size_t i = 0; i < n_; ++i) g[i] = c * (x[i] - p[i]);
  }

  // Backprop to the hidden layer: g1 = (g2 (M2 .* W2)) .* relu'(a1).
  ensure_shape(ws.g1, bs, h_);
  gemm_nn_prefix(ws.g2, w2(), plan_.degree_end, ws.g1);
  relu_backward_inplace(ws.a1, ws.g1);
}

void Made::accumulate_log_psi_gradient_ws(
    const Matrix& batch, std::span<const Real> coeff, std::span<Real> grad,
    WavefunctionModel::Workspace* caller_ws) const {
  Workspace local;
  Workspace& ws = workspace_or(caller_ws, local);
  const std::size_t bs = batch.rows();
  VQMC_REQUIRE(coeff.size() == bs, "MADE: coefficient size mismatch");
  VQMC_REQUIRE(grad.size() == num_parameters(), "MADE: gradient size mismatch");

  backward(batch, coeff.data(), ws);

  const std::size_t off_b1 = h_ * n_;
  const std::size_t off_w2 = off_b1 + h_;
  const std::size_t off_b2 = off_w2 + n_ * h_;

  // Layer 2 gradients, in place into grad's W2 block and only inside the
  // mask prefixes (the mask is 1 there, 0 elsewhere: no scratch, no mask
  // pass).
  gemm_tn_accumulate_prefix(ws.g2, ws.h1, plan_.degree_end,
                            MatrixView(grad.data() + off_w2, n_, h_));
  column_sum_accumulate(ws.g2, grad.subspan(off_b2, n_));

  // Layer 1 gradients, in place into grad's W1 block.
  gemm_tn_accumulate_prefix(ws.g1, batch, plan_.degree,
                            MatrixView(grad.data(), h_, n_));
  column_sum_accumulate(ws.g1, grad.subspan(off_b1, h_));
}

void Made::log_psi_gradient_per_sample_ws(
    const Matrix& batch, Matrix& out,
    WavefunctionModel::Workspace* caller_ws) const {
  Workspace local;
  Workspace& ws = workspace_or(caller_ws, local);
  const std::size_t bs = batch.rows();
  const std::size_t d = num_parameters();
  VQMC_REQUIRE(out.rows() == bs && out.cols() == d,
               "MADE: per-sample gradient shape mismatch");

  forward(batch, ws, ws.p);
  const ConstMatrixView pw2 = w2();

  const std::size_t off_b1 = h_ * n_;
  const std::size_t off_w2 = off_b1 + h_;
  const std::size_t off_b2 = off_w2 + n_ * h_;

#pragma omp parallel
  {
    // Hidden-layer signal, hoisted out of the row loop per thread.
    std::vector<Real> g1(h_);
#pragma omp for schedule(static)
    for (std::size_t k = 0; k < bs; ++k) {
      const Real* x = batch.row(k).data();
      const Real* p = ws.p.row(k).data();
      const Real* h1 = ws.h1.row(k).data();
      const Real* a1 = ws.a1.row(k).data();
      Real* o = out.row(k).data();
      for (std::size_t i = 0; i < d; ++i) o[i] = 0;
      std::fill(g1.begin(), g1.end(), Real(0));

      // g2_i = (x_i - p_i)/2; fill b2 block and the in-mask prefix of
      // each W2 row (the rest stays zero), and push back to g1.
      Real* ob2 = o + off_b2;
      Real* ow2 = o + off_w2;
      for (std::size_t i = 0; i < n_; ++i) {
        const Real g2 = (x[i] - p[i]) / 2;
        ob2[i] = g2;
        const Real* w2row = pw2.row(i).data();
        Real* ow2row = ow2 + i * h_;
        for (std::size_t l = 0; l < plan_.degree_end[i]; ++l) {
          ow2row[l] = g2 * h1[l];
          g1[l] += g2 * w2row[l];
        }
      }
      // ReLU backward + layer 1 blocks.
      Real* ob1 = o + off_b1;
      for (std::size_t l = 0; l < h_; ++l) {
        const Real g = (a1[l] > 0) ? g1[l] : 0;
        ob1[l] = g;
        Real* ow1row = o + l * n_;
        for (std::size_t j = 0; j < plan_.degree[l]; ++j) ow1row[j] = g * x[j];
      }
    }
  }
}

void Made::log_psi_gradient_gram(
    const Matrix& batch, Matrix& gram,
    WavefunctionModel::Workspace* caller_ws) const {
  Workspace local;
  Workspace& ws = workspace_or(caller_ws, local);
  const std::size_t bs = batch.rows();
  VQMC_REQUIRE(gram.rows() == bs && gram.cols() == bs,
               "MADE: Gram must be bs x bs");
  backward(batch, nullptr, ws);

  // made_gram's lane-major operands: one column per sample, zero padding
  // up to a whole lane tile; the units are already in degree order.
  const std::size_t lanes = (bs + kGramLanes - 1) / kGramLanes * kGramLanes;
  ensure_shape(ws.gram_x, n_, lanes);
  ensure_shape(ws.gram_g2, n_, lanes);
  ensure_shape(ws.gram_g1, h_, lanes);
  ensure_shape(ws.gram_h1, h_, lanes);
#pragma omp parallel for schedule(static)
  for (std::size_t s = 0; s < lanes; ++s) {
    const bool pad = s >= bs;
    for (std::size_t j = 0; j < n_; ++j) {
      ws.gram_x(j, s) = pad ? 0 : batch(s, j);
      ws.gram_g2(j, s) = pad ? 0 : ws.g2(s, j);
    }
    for (std::size_t u = 0; u < h_; ++u) {
      ws.gram_g1(u, s) = pad ? 0 : ws.g1(s, u);
      ws.gram_h1(u, s) = pad ? 0 : ws.h1(s, u);
    }
  }
  made_gram(ws.gram_x, ws.gram_g2, ws.gram_g1, ws.gram_h1, plan_.degree_end,
            gram);
}

bool Made::log_psi_flip_ratios(const Matrix& batch,
                               std::span<const std::size_t> sites, Matrix& out,
                               WavefunctionModel::Workspace* caller_ws) const {
  Workspace local;
  Workspace& ws = workspace_or(caller_ws, local);
  VQMC_REQUIRE(batch.cols() == n_, "MADE: batch has wrong spin count");
  const std::size_t bs = batch.rows();
  const std::size_t m = sites.size();
  VQMC_REQUIRE(out.rows() == bs && out.cols() == m,
               "MADE: flip-ratio output shape mismatch");
  for (const std::size_t i : sites)
    VQMC_REQUIRE(i < n_, "MADE: flip site out of range");
  if (bs == 0 || m == 0) return true;

  // W2's prefix rows are read in place; W1's suffix columns come from a
  // packing of the current parameters.
  pack_w1_columns(ws.w1_cols);
  const Real* w1c = ws.w1_cols.data();
  const std::vector<std::size_t>& w1_off = plan_.w1_col_offsets;
  const std::vector<std::size_t>& degree_end = plan_.degree_end;

  // One batched forward that keeps the logits; p is log_psi's p bitwise.
  forward_logits(batch, ws, ws.z);
  ensure_shape(ws.p, bs, n_);
  std::copy_n(ws.z.data(), bs * n_, ws.p.data());
  sigmoid_inplace(ws.p);

  // Lanes are (row, site) pairs.  A batch of at least L rows runs tiles of
  // L rows that flip one site at a time; a smaller batch fills the lanes
  // with L sites of one row instead, so no lane idles.  Row tiles are the
  // faster layout when there are rows to fill them (DESIGN.md §5l): a site
  // tile runs its lowest site's triangle in every lane.  Either way each
  // lane sums the same terms in the same order (a unit or conditional a
  // lane's flip does not move contributes an exact zero or nothing), so a
  // row's ratios are bitwise the same in both layouts.
  constexpr std::size_t L = kFlipLanes;
  const bool row_tiles = bs >= L;
  const std::size_t groups = row_tiles ? (bs + L - 1) / L : bs;
  const std::size_t site_groups = (m + L - 1) / L;
  const std::size_t tasks = row_tiles ? groups : bs * site_groups;
#ifdef _OPENMP
  const std::size_t threads = std::size_t(omp_get_max_threads());
#else
  const std::size_t threads = 1;
#endif
  // Rows for either layout of any batch up to this one (site tiles of up
  // to L - 1 rows need one group per row), so a later call with fewer rows
  // reuses the storage.
  const std::size_t lane_rows = std::max(groups, std::min(bs, L - 1));
  ensure_shape(ws.xt, lane_rows, n_ * L);
  ensure_shape(ws.zt, lane_rows, n_ * L);
  ensure_shape(ws.pt, lane_rows, n_ * L);
  ensure_shape(ws.at, lane_rows, h_ * L);
  ensure_shape(ws.wt, threads, h_ * L);
  ensure_shape(ws.dht, threads, h_ * L);
  ensure_shape(ws.znt, threads, n_ * L);

  // Lane-major inputs per row group: a row tile's L rows (a short last
  // tile repeats its last row), or one row copied into every lane.
  const auto lane_row = [&](std::size_t g, std::size_t l) {
    return row_tiles ? std::min(g * L + l, bs - 1) : g;
  };
#pragma omp parallel for schedule(static)
  for (std::size_t g = 0; g < groups; ++g) {
    Real* xt = ws.xt.row(g).data();
    Real* zt = ws.zt.row(g).data();
    Real* pt = ws.pt.row(g).data();
    Real* at = ws.at.row(g).data();
    for (std::size_t l = 0; l < L; ++l) {
      const std::size_t r = lane_row(g, l);
      const Real* x = batch.row(r).data();
      const Real* z = ws.z.row(r).data();
      const Real* p = ws.p.row(r).data();
      const Real* a = ws.a1.row(r).data();
      for (std::size_t j = 0; j < n_; ++j) {
        xt[j * L + l] = x[j];
        zt[j * L + l] = z[j];
        pt[j * L + l] = clamped(x[j] != 0 ? p[j] : 1 - p[j]);
      }
      for (std::size_t c = 0; c < h_; ++c) at[c * L + l] = a[c];
    }
  }

#pragma omp parallel for schedule(static)
  for (std::size_t task = 0; task < tasks; ++task) {
#ifdef _OPENMP
    const std::size_t thread = std::size_t(omp_get_thread_num());
#else
    const std::size_t thread = 0;
#endif
    const std::size_t g = row_tiles ? task : task / site_groups;
    const Real* xt = ws.xt.row(g).data();
    const Real* zt = ws.zt.row(g).data();
    const Real* pt = ws.pt.row(g).data();
    const Real* at = ws.at.row(g).data();
    Real* wt = ws.wt.row(thread).data();
    Real* dht = ws.dht.row(thread).data();
    Real* znt = ws.znt.row(thread).data();
    const std::size_t passes = row_tiles ? m : 1;
    for (std::size_t pass = 0; pass < passes; ++pass) {
      // The lanes' sites (a short site group repeats its last site).
      std::size_t q[L], site[L], lo[L];
      for (std::size_t l = 0; l < L; ++l) {
        q[l] = row_tiles ? pass
                         : std::min((task % site_groups) * L + l, m - 1);
        site[l] = sites[q[l]];
        // Units [lo, h) read input i; output j reads units
        // [0, degree_end[j]), so each changed logit is one dot over
        // [lo, degree_end[j]) — a triangle that shrinks as i grows.
        lo[l] = degree_end[site[l]];
      }
      const std::size_t i0 = *std::min_element(site, site + L);
      const std::size_t lo0 = degree_end[i0];
      // Terms [first, last) of the lane's sum over the sites from i0: the
      // flipped site itself, and every later one when hidden units move.
      std::size_t first[L], last[L];
      for (std::size_t l = 0; l < L; ++l) {
        first[l] = site[l] - i0;
        last[l] = lo[l] < h_ ? n_ - i0 : first[l] + 1;
      }
      Real sums[L];
      if (lo0 < h_) {
        Real sign[L];
        for (std::size_t l = 0; l < L; ++l) {
          // A 0 -> 1 flip adds W1[:, i] to the pre-activations.
          sign[l] = 1 - 2 * xt[site[l] * L + l];
          const Real* w = w1c + w1_off[site[l]];
          for (std::size_t c = lo0; c < lo[l]; ++c) wt[c * L + l] = 0;
          for (std::size_t c = lo[l]; c < h_; ++c)
            wt[c * L + l] = w[c - lo[l]];
        }
        relu_shift_delta_lanes(at + lo0 * L, wt + lo0 * L, sign, h_ - lo0,
                               dht + lo0 * L);
        triangle_dot_lanes(w2(), degree_end, lo0, i0, dht, zt, znt);
        bernoulli_logit_delta_lanes(xt + i0 * L, znt, pt + i0 * L, n_ - i0,
                                    i0, first, last, kProbEps, sums);
      } else {
        const std::size_t len = *std::max_element(site, site + L) - i0 + 1;
        bernoulli_logit_delta_lanes(xt + i0 * L, zt + i0 * L, pt + i0 * L,
                                    len, i0, first, last, kProbEps, sums);
      }
      for (std::size_t l = 0; l < L; ++l) {
        const std::size_t r = row_tiles ? g * L + l : g;
        if (r < bs) out(r, q[l]) = sums[l] / 2;
      }
    }
  }
  return true;
}

}  // namespace vqmc
