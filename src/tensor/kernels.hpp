#pragma once

/// \file kernels.hpp
/// \brief BLAS-like dense and prefix-masked structured kernels on
/// Matrix / Vector.
///
/// Naming follows BLAS transpose conventions: `gemm_nt` computes
/// C = A * B^T, `gemm_tn` computes C = A^T * B, etc.  All kernels are
/// OpenMP-parallel over the independent output dimension; they form the
/// compute substrate that stands in for the paper's GPU matmuls (the MADE /
/// RBM forward and backward passes are nothing but these calls).
///
/// Kernels either overwrite (`gemm*`) or accumulate
/// (`*_accumulate`); the accumulate forms are used to sum gradients over a
/// batch without temporaries.
///
/// The `*_prefix` forms are the masked-compute path (DESIGN.md §5f): with
/// MADE's hidden units in degree order every mask row is a prefix, so they
/// take the weight block as a view into the parameter (or gradient) vector
/// plus one length per weight row, visit only columns [0, len[r]) of row r,
/// and skip the ~50% of multiply-adds the autoregressive masks zero out.
/// No packed or masked copy of the weights exists anywhere.
///
/// Accumulation-order contract (DESIGN.md §5g).  Since PR 6 the kernels
/// are SIMD-blocked (runtime-dispatched generic / AVX2 / AVX-512
/// implementations, see simd.hpp), which re-associates dot-type
/// reductions; the PR 5 "bit-for-bit equal to dense-on-masked" promise is
/// replaced by:
///
///  1. *Reference parity within a ULP bound.*  Scalar reference kernels
///     live in kernels_ref.hpp (namespace vqmc::ref); for any dot-form
///     kernel, each output element e with reduction terms t_i satisfies
///     |e_simd - e_ref| <= 2 * L * eps * sum_i |t_i| for reduction length
///     L and eps = DBL_EPSILON (in practice a handful of ulps — the bound
///     is the worst case over any re-association).  Accumulating
///     (axpy-form) kernels preserve the reference term order exactly.
///  2. *Run-to-run bitwise determinism.*  Blocking, lane order, and the
///     combination tree are fixed per build + dispatch level, and no
///     kernel's element values depend on thread count, so repeated runs on
///     one machine reproduce results bit-for-bit.
///  3. *Batch-position independence.*  A row's output is computed with the
///     same canonical per-row accumulation pattern whether it sits in a
///     row block, a block tail, or alone — coalescing rows into a batch
///     (the serving path) can never perturb any row's value.
///
/// Vectorized transcendentals (sigmoid_inplace, tanh_inplace,
/// bernoulli_log_likelihood, sum_log_cosh, rbm_flip_table, rbm_flip_pq,
/// rbm_flip_log_sums) use polynomial exp/log accurate to a few ulp; they
/// vectorize per row so property 3 holds for them too.  The MADE flip
/// kernels (relu_shift_delta_lanes, triangle_dot_lanes,
/// bernoulli_logit_delta_lanes) vectorize across (row, site) lanes, and
/// ising_diagonal across rows, which gives property 3 by construction.
///
/// The flip kernels take one log per chunk of factors (DESIGN.md §5l):
/// RBM's cosh ratios and MADE's clamped Bernoulli probabilities are
/// multiplied in chunks short enough that no product leaves the normal
/// range, and a chunk's boundaries depend only on the row's own data (RBM:
/// the unit index; MADE: the absolute output index), never on the batch or
/// the lane a row occupies.

#include <cstddef>
#include <cstdint>
#include <span>

#include "tensor/matrix.hpp"
#include "tensor/vector.hpp"

namespace vqmc {

// ---------------------------------------------------------------------------
// Level-1: vector-vector.
// ---------------------------------------------------------------------------

/// Dot product <x, y>.
Real dot(std::span<const Real> x, std::span<const Real> y);

/// y += alpha * x.
void axpy(Real alpha, std::span<const Real> x, std::span<Real> y);

/// x *= alpha.
void scale(std::span<Real> x, Real alpha);

/// Sum of elements (pairwise accumulation: O(log N)-ulp error bound, so
/// million-row batch statistics stay accurate).
Real sum(std::span<const Real> x);

/// Arithmetic mean (0 for empty spans; pairwise accumulation).
Real mean(std::span<const Real> x);

/// Population variance (division by N; 0 for empty spans; two-pass with
/// pairwise accumulation of the squared deviations).
Real variance(std::span<const Real> x);

// ---------------------------------------------------------------------------
// Level-3: matrix-matrix.
// ---------------------------------------------------------------------------

/// C = A B^T    (A: m x k, B: n x k, C: m x n).
void gemm_nt(const Matrix& a, ConstMatrixView b, Matrix& c);

/// C += A^T B   (A: k x m, B: k x n, C: m x n). Accumulating form used for
/// weight gradients summed over the batch (k = batch) dimension, straight
/// into a gradient vector's weight block.
void gemm_tn_accumulate(const Matrix& a, const Matrix& b, MatrixView c);

// ---------------------------------------------------------------------------
// Prefix-length (masked) forms.  Each takes a weight block W as a view into
// the parameter vector (gemm_tn_accumulate_prefix: a gradient block C in the
// gradient vector) plus `len`, one length per row of that block: row r's
// in-mask entries are its columns [0, len[r]), and no entry past them is
// read or written, so the block may be an unmasked slice of the vector.
// Each agrees with its dense counterpart run on the masked operand within
// the accumulation-order contract above (the scalar references in
// kernels_ref.hpp are the exact ground truth).
// ---------------------------------------------------------------------------

/// C = A W^T with W row j read over [0, len[j]): C(r, j) = sum over
/// l < len[j] of A(r, l) W(j, l) (A: m x k, W: n x k, C: m x n, len.size()
/// == n).  The MADE forward's two layers; a row of length 0 gives 0.
void gemm_nt_prefix(const Matrix& a, ConstMatrixView w,
                    std::span<const std::size_t> len, Matrix& c);

/// C = A W with W row l read over [0, len[l]) (A: m x k, W: k x n, C: m x n,
/// len.size() == k): the MADE backward's signal through a masked layer.
void gemm_nn_prefix(const Matrix& a, ConstMatrixView w,
                    std::span<const std::size_t> len, Matrix& c);

/// C += A^T B restricted to each C row's prefix [0, len[r]) (A: k x m,
/// B: k x n, C: m x n, len.size() == m).  Entries of C past the prefix are
/// left untouched, so C may be a masked weight's gradient block: no scratch
/// or mask-apply pass is needed, as the mask is 1 inside the prefix.
void gemm_tn_accumulate_prefix(const Matrix& a, const Matrix& b,
                               std::span<const std::size_t> len, MatrixView c);

/// Fused prefix dot with ReLU applied to the activations on the fly, over
/// `rows` activation rows sharing W's row `row`:
///   out[r] = sum over c < len[row] of max(a[r * lda + c], 0) * W(row, c).
/// `a` is a row-major block with leading dimension `lda`.  This is the
/// ancestral samplers' logit primitive — the batched conditional engine
/// evaluates site i's logit for the whole micro-batch in one call with
/// 4-row register blocking, and each out[r] is bitwise the value of a
/// one-row call, so batching never perturbs a row's value (FastMadeSampler
/// and ModelSnapshot::sample share it and stay mutually bit-identical).
void relu_dot_prefix_batch(ConstMatrixView w, std::span<const std::size_t> len,
                           std::size_t row, const Real* a, std::size_t lda,
                           std::size_t rows, Real* out);

/// Blocked prefix dot over W's rows [row_begin, w.rows()) and a fixed block
/// of already-rectified activations:
///   out(i - row_begin, r) = sum over c < len[i] of a[r * lda + c] W(i, c).
/// `out` must be pre-shaped (w.rows() - row_begin) x rows.  On a = relu(x)
/// every cell is bitwise identical to the one-row relu_dot_prefix_batch of
/// x's row r against W row i — the dot4/dot accumulation structure is the
/// same, only the per-element vmax is gone from the inner loop.  This is the
/// conditional engine's frozen-tail kernel: once no remaining site can
/// change the pre-activations, the engine rectifies them once and computes
/// all remaining logits in one blocked pass with row-tile-outer ordering
/// (activation rows stay cache-resident while W's rows stream once per
/// block) instead of a per-site sweep that re-reads the whole activation
/// block for every site.
void dot_prefix_block(ConstMatrixView w, std::span<const std::size_t> len,
                      std::size_t row_begin, const Real* a, std::size_t lda,
                      std::size_t rows, Matrix& out);

/// a[r][col_begin + t] += vals[t] for every r in `row_ids` — the samplers'
/// rank-1 update of one masked W1 column, whose active hidden units form
/// one interval.  Bitwise identical to the scalar per-row += walk (the fused
/// multiplier is exactly one), with one dispatched call covering all
/// flipped rows of a site.
void rank1_add_rows(Real* a, std::size_t lda,
                    std::span<const std::uint32_t> row_ids,
                    std::size_t col_begin, const Real* vals, std::size_t len);

/// dst[0..len) += cols[b][0..len) for every set bit b of `mask`, ascending.
/// The deferred half of the samplers' blocked rank-1 update: one call
/// applies every recorded flip of a 64-site block to one activation row
/// while that row is cache-resident.  Ascending bit order and the unit fma
/// multiplier keep the result bitwise identical to applying each add at
/// its original site.
void accumulate_masked_cols(Real* dst, std::uint64_t mask,
                            const Real* const* cols, std::size_t len);

/// sum_i log(max(x_i != 0 ? p_i : 1 - p_i, eps)) — the Bernoulli
/// log-likelihood of binary configuration x under conditionals p (length
/// x.size()).  For x in {0,1}^n this equals the textbook
/// x log p + (1-x) log(1-p) with both logs clamped at eps.  Vectorized
/// with the polynomial log; per-row primitive (batch-position independent).
Real bernoulli_log_likelihood(std::span<const Real> x, const Real* p,
                              Real eps);

// ---------------------------------------------------------------------------
// Elementwise / broadcast operations used by the NN layers.
// ---------------------------------------------------------------------------

/// Add bias vector b (length n) to every row of A (rows x n).
void add_row_broadcast(Matrix& a, std::span<const Real> b);

/// A := max(A, 0) elementwise; also usable as in-place ReLU.
void relu_inplace(Matrix& a);

/// grad := grad * 1[pre > 0] elementwise (ReLU backward through `pre`).
void relu_backward_inplace(const Matrix& pre, Matrix& grad);

/// A := sigmoid(A) elementwise, numerically stable for large |x|.
void sigmoid_inplace(Matrix& a);

/// A := tanh(A) elementwise: the RBM's hidden-unit log-derivatives.  The
/// vector lanes use exp's reduction for e^{-2|x|} - 1 without cancelling
/// at small |x|, within 4 ulp of std::tanh; +-0 stays +-0, large |x| gives
/// exactly +-1 and NaN stays NaN.  Vectorized per row (a column's vector /
/// tail split does not depend on the batch).
void tanh_inplace(Matrix& a);

/// Column sums of A into out (length cols), accumulated: out += sum_r A(r,:).
void column_sum_accumulate(const Matrix& a, std::span<Real> out);

/// Stable elementwise sigmoid of a scalar.
Real sigmoid(Real x);

// ---------------------------------------------------------------------------
// Single-flip log-psi ratio primitives (DESIGN.md §5l).
// ---------------------------------------------------------------------------

/// sum_t log cosh(x_t), each term computed stably as
/// |x| + log(1 + e^{-2|x|}) - log 2 (finite for every finite x; NaN
/// propagates).  The RBM's log-psi reduction.  Vectorized with the
/// polynomial exp/log; per-row primitive (batch-position independent).
Real sum_log_cosh(std::span<const Real> x);

/// Lanes per tile of the MADE flip kernels below.  A tile stores a
/// per-lane quantity v as v[t * kFlipLanes + lane], and each lane is one
/// (sample row, flipped site) pair, so the kernels vectorize across
/// lanes: a lane accumulates its terms one after another in index order,
/// never re-associated.  A lane's result is therefore bitwise the same in
/// any lane position, whatever its neighbours, at any thread count.
inline constexpr std::size_t kFlipLanes = 8;

/// MADE flip path's hidden-unit change over one lane-major tile:
///   out[c * L + lane] = relu(a[c * L + lane] + sign[lane] * w[c * L + lane])
///                       - relu(a[c * L + lane])
/// for c < len, with relu(v) = v > 0 ? v : 0 (relu_inplace's, NaN -> 0) and
/// sign[lane] = +-1: the change of the hidden units when the lane's input
/// flips, w holding the lane's W1 column (0 where a unit does not read it,
/// which makes that unit's change exactly 0).
void relu_shift_delta_lanes(const Real* a, const Real* w, const Real* sign,
                            std::size_t len, Real* out);

/// MADE flip path's suffix-triangle logit update over one lane-major tile.
/// W row j holds output j's weights, in-mask over its prefix [0, len[j]);
/// `a` holds the hidden-unit changes (w.cols() x kFlipLanes) and `base` the
/// old logits (w.rows() x kFlipLanes).  For every j in [j_begin, w.rows())
/// and every lane:
///
///   out[(j - j_begin) * L + lane] = base[j * L + lane]
///       + sum_{c in [lo, len[j])} W(j, c) * a[c * L + lane]
///
/// with the sum accumulated in ascending c.  Requires len[j] >= lo for
/// every such j.
void triangle_dot_lanes(ConstMatrixView w, std::span<const std::size_t> len,
                        std::size_t lo, std::size_t j_begin, const Real* a,
                        const Real* base, Real* out);

/// Output indices per product chunk of bernoulli_logit_delta_lanes: 24
/// factors in [1e-12, 1] multiply to at least 1e-288, inside the normal
/// range.
inline constexpr std::size_t kBernoulliChunk = 24;

/// Per lane, sum over t in [first[lane], last[lane]) of
///   log(max(x'_t != 0 ? s_t : 1 - s_t, eps)) - log(base_t),
/// s_t = sigmoid(z_t), over a lane-major tile (len x kFlipLanes each; `out`
/// gets kFlipLanes sums), where x' is x with the lane's entry at
/// t = first[lane] flipped and base_t is the old term's clamped
/// probability max(x_t != 0 ? p_t : 1 - p_t, eps): the change of a row's
/// Bernoulli log-likelihood when its site first[lane] flips and the
/// conditionals after it move to logits z.  The MADE flip path evaluates
/// every changed conditional of a tile in one call.
///
/// The new and old clamped probabilities are multiplied per chunk and each
/// chunk adds one log(new product / old product).  A chunk is the set of
/// t whose absolute output index origin + t falls in one block
/// [k kBernoulliChunk, (k + 1) kBernoulliChunk); terms outside a lane's
/// range enter as exact factors of 1, so a lane's value depends only on
/// its own terms and origin + first[lane], never on its neighbours or on
/// where the tile starts.  NaN logits give NaN.
void bernoulli_logit_delta_lanes(const Real* x, const Real* z,
                                 const Real* base, std::size_t len,
                                 std::size_t origin, const std::size_t* first,
                                 const std::size_t* last, Real eps,
                                 Real* out);

/// The RBM flip path's per-call tables from W (h x n, DESIGN.md §5l): the
/// factor table g (n x h, W^T's layout, pre-shaped),
/// g(i, l) = copysign(e^{max(-2|W_li|, -708)}, W_li), one vector exp per
/// lane, and abs_w[i] = sum_l |W_li| (length n, accumulated in ascending
/// l); when `w_t` is not null, W^T itself into it (n x h, pre-shaped), the
/// chain walk's columns of W.  Returns max |W| over the non-NaN weights; a
/// NaN weight gives a NaN factor.
Real rbm_flip_table(ConstMatrixView w, Matrix& g, std::span<Real> abs_w,
                    Matrix* w_t);

/// One sample row's p_l = sigmoid(2 theta_l) and q_l = sigmoid(-2 theta_l)
/// into pq (2h: p, then q), both formed directly, neither as one minus the
/// other: the per-row half of the RBM flip path (DESIGN.md §5l).  NaN in
/// theta gives NaN.  Throws Error unless pq.size() == 2 theta.size().
void rbm_flip_pq(std::span<const Real> theta, std::span<Real> pq);

/// The RBM flip path's cosh-ratio sums of one sample row (DESIGN.md §5l),
/// from its p and q (rbm_flip_pq) and the factor table g (n x h,
/// g(i, l) = copysign(e^{-2|W_li|}, W_li), rbm_flip_table).  Writes for
/// every q < sites.size(), with i = sites[q] and v_l = +-W_li the flip's
/// shift of theta_l (+ when x[i] == 0),
///
///   out[q] = sum_l log y_l,   y_l = p_l + q_l |g(i, l)|  if v_l >= 0,
///                                   p_l |g(i, l)| + q_l  otherwise,
///
/// so that log cosh(theta_l + v_l) - log cosh(theta_l) = |v_l| + log y_l.
/// Every y_l lies in [|g(i, l)|, 1] and is a sum of non-negative terms.
/// The factors are multiplied `chunk` at a time per vector lane (lane k
/// owns the units l = k mod the vector width) before one log, so a caller
/// must keep chunk * 2 max|W| <= 700 (chunk >= 1): every product then
/// stays normal.  NaN in p, q or g gives NaN.  Throws Error unless
/// pq.size() == 2 g.cols(), chunk >= 1 and every site is a row of g.
void rbm_flip_log_sums(std::span<const Real> pq, ConstMatrixView g,
                       std::span<const std::size_t> sites, const Real* x,
                       std::size_t chunk, Real* out);

// ---------------------------------------------------------------------------
// Ising diagonal (DESIGN.md §5l).
// ---------------------------------------------------------------------------

/// One Z_i Z_j term of an Ising diagonal: sites i < j and weight beta, 16
/// bytes.  TransverseFieldIsing stores its couplings in this form.
struct IsingCoupling {
  std::uint32_t i;
  std::uint32_t j;
  Real beta;
};

/// out[r] = -sum_i field[i] s_i - sum_c beta_c s_{i_c} s_{j_c} for every
/// row r of the rows x n block x (entries in {0, 1}, s = 1 - 2 x), each
/// row's terms subtracted in that order: the fields by site, then the
/// couplings in list order.  A product of +-1 signs is exact, so every term
/// is exactly +-beta and each row's value is bitwise the scalar loop's.
/// Rows run in vector lanes, whole register tiles at a time, each site's
/// bits packed into one word per group of tiles on a 64 KB stack buffer;
/// a row of a short last tile, and every row when n > 16384, runs the
/// scalar loop alone.  Sites i, j of every coupling must be < n.
void ising_diagonal(const Real* x, std::size_t rows, std::size_t n,
                    std::span<const Real> field,
                    std::span<const IsingCoupling> couplings, Real* out);

// ---------------------------------------------------------------------------
// Sample-space stochastic reconfiguration (DESIGN.md §5m).
// ---------------------------------------------------------------------------

/// Column padding of made_gram's operands: their column count is a
/// multiple of this, the lanes of one register tile.
inline constexpr std::size_t kGramLanes = 8;

/// MADE's per-sample log-derivative Gram matrix K = O O^T, from the layer
/// factors instead of O.  The operands are lane-major: column s of each
/// holds sample s, for s < bs = k.rows() (further columns are padding and
/// never read into K).  `x` and `g2` are n x L (inputs and output-layer
/// signals), `g1` and `h1` are h x L (hidden-layer signals and
/// activations) with the hidden units in nondecreasing degree order, and
/// level_end[i] (length n, ending at h) counts the units of degree <= i.
/// With 1 + running sums
///
///   P_st(i) = 1 + sum_{j < i} x(j,s) x(j,t)
///   Q_st(i) = 1 + sum_{u of degree <= i} h1(u,s) h1(u,t)
///
/// every element is accumulated in one fixed order, levels i ascending:
/// each unit u of degree i adds g1(u,s) g1(u,t) P_st(i), then output i adds
/// g2(i,s) g2(i,t) Q_st(i).  That is MADE's
///   <O_s, O_t> = sum_u g1 g1 (1 + P(deg u)) + sum_i g2 g2 (1 + Q(i))
/// for any degree assignment.  The kernel computes the lower triangle in
/// register tiles of sample rows s against kGramLanes lanes t and stores
/// each value at (s, t) and (t, s), so K is exactly symmetric, and no
/// value depends on the thread count.
void made_gram(const Matrix& x, const Matrix& g2, const Matrix& g1,
               const Matrix& h1, std::span<const std::size_t> level_end,
               Matrix& k);

// ---------------------------------------------------------------------------
// Integrity checksum of wire frames and checkpoints (DESIGN.md §5h).
// ---------------------------------------------------------------------------

/// CRC-32C (Castagnoli: reflected polynomial 0x82F63B78, initial value and
/// final xor 0xFFFFFFFF) of `bytes` bytes at `data`, continuing from `crc`,
/// the CRC-32C of the bytes before them (0 for none), so that
/// crc32c(crc32c(0, a), b) == crc32c(0, a || b).  The AVX2 and AVX-512
/// tiers run one chain of the SSE4.2 crc32 instruction, 8 bytes per step;
/// the generic tier is table-driven, slicing-by-8.  Every tier returns the
/// value of the byte-at-a-time oracle ref::crc32c.
std::uint32_t crc32c(std::uint32_t crc, const void* data, std::size_t bytes);

}  // namespace vqmc
