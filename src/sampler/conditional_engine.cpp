#include "sampler/conditional_engine.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "rng/distributions.hpp"
#include "tensor/kernels.hpp"

namespace vqmc {

std::uint64_t sample_conditionals_batched(const Made& model,
                                          std::span<const Real> w1_cols,
                                          Matrix& out,
                                          std::span<const DrawSlice> slices,
                                          Made::Workspace& ws) {
  const std::size_t n = model.num_spins();
  const std::size_t h = model.hidden_size();
  VQMC_REQUIRE(out.cols() == n, "sampler: output batch has wrong spin count");
  const std::size_t bs = out.rows();
  VQMC_REQUIRE(bs > 0, "sampler: batch must be non-empty");
  for (const DrawSlice& s : slices) {
    VQMC_REQUIRE(s.gen != nullptr, "sampler: slice without generator");
    VQMC_REQUIRE(s.row_count > 0 && s.row_begin + s.row_count <= bs,
                 "sampler: slice outside batch");
  }

  const MaskedPlan& plan = model.plan();
  VQMC_REQUIRE(w1_cols.size() == plan.w1_col_offsets[n],
               "sampler: W1 column packing has the wrong size");
  const std::vector<std::size_t>& degree_end = plan.degree_end;
  const ConstMatrixView w2 = model.w2();
  const std::span<const Real> b1 = model.bias1();
  const std::span<const Real> b2 = model.bias2();

  // A1 starts at the bias: the initial configuration is all-zeros, which
  // contributes nothing through W1m.  The block is kept at an aligned
  // pad-to-8 stride; the pad columns are never read (every kernel walks
  // a prefix inside [0, h)).
  const std::size_t hp = (h + 7) & ~std::size_t(7);
  ensure_shape(ws.a1_pad, bs, hp);
  Real* a_base = ws.a1_pad.data();
  for (std::size_t k = 0; k < bs; ++k) {
    Real* row = a_base + k * hp;
    for (std::size_t l = 0; l < h; ++l) row[l] = b1[l];
  }
  if (ws.logits.size() != bs) ws.logits = Vector(bs);
  Real* logits = ws.logits.data();
  if (ws.flips.capacity() < bs) ws.flips.reserve(bs);
  out.fill(0);

  // Input i feeds the units [degree_end[i], h), so from the first site
  // whose column is empty (degree_end == h) on no draw can change A1, and
  // the remaining logits are one blocked kernel pass instead of a per-site
  // sweep that re-reads the whole activation block for every site.  For
  // h <= n-1 that is every site >= h, the large majority at paper scale
  // (n = 1000 gives h = 239).  degree_end[n - 1] == h, so frozen < n.
  const std::size_t frozen = std::size_t(
      std::find(degree_end.begin(), degree_end.end(), h) - degree_end.begin());

  std::uint64_t nonfinite = 0;

  // Draws stay site-major / row-minor within each slice's private stream:
  // each row consumes exactly one uniform per site — including clamped
  // non-finite conditionals — so healthy streams are bit-identical to the
  // unguarded history and slices never perturb one another.
  const auto draw_site = [&](std::size_t i, const Real* site_logits,
                             bool record_flips) {
    const Real bias = b2[i];
    for (const DrawSlice& s : slices) {
      rng::Xoshiro256& gen = *s.gen;
      const std::size_t end = s.row_begin + s.row_count;
      for (std::size_t k = s.row_begin; k < end; ++k) {
        Real p1 = sigmoid(bias + site_logits[k]);
        if (!std::isfinite(p1)) {
          // Unhealthy model (NaN/inf parameters). Fall back to an unbiased
          // coin instead of feeding NaN into an ill-defined comparison that
          // would silently bias this and every later site.
          ++nonfinite;
          p1 = Real(0.5);
        }
        if (rng::bernoulli(gen, p1)) {
          out(k, i) = 1;
          if (record_flips) ws.flips.push_back(static_cast<std::uint32_t>(k));
        }
      }
    }
  };

  // Blocked rank-1 pass.  Site j's logit reads the units [0,
  // degree_end[j]), so inside a 64-site block [b0, b1) only the near
  // segment [degree_end[i], degree_end[b1]) of input i's column is applied
  // immediately (it feeds the block's logits), while the far segment
  // [degree_end[b1], h) is recorded as one flip bit per row and applied at
  // block end row-by-row, so each activation row is updated once per block
  // while cache-resident instead of once per site from scattered lines.
  // Within every element the adds still land in ascending site order with
  // a unit fma multiplier, keeping the stream bitwise identical to the
  // naive per-site walk.
  constexpr std::size_t kSiteBlock = 64;
  if (ws.flip_masks.size() != bs) ws.flip_masks.assign(bs, 0);
  if (ws.col_ptrs.size() != kSiteBlock) ws.col_ptrs.resize(kSiteBlock);
  for (std::size_t b0 = 0; b0 < frozen; b0 += kSiteBlock) {
    const std::size_t b1 = std::min(b0 + kSiteBlock, frozen);
    const std::size_t far_begin = degree_end[b1];
    const std::size_t far_len = h - far_begin;
    std::fill(ws.flip_masks.begin(), ws.flip_masks.end(), 0);
    for (std::size_t i = b0; i < b1; ++i) {
      // One batched kernel call per site: logits[k] is bitwise the value
      // of the one-row call the per-row loop used to make, so the
      // historical draw streams are preserved exactly.
      relu_dot_prefix_batch(w2, degree_end, i, a_base, hp, bs, logits);
      ws.flips.clear();
      draw_site(i, logits, /*record_flips=*/true);

      const Real* col = w1_cols.data() + plan.w1_col_offsets[i];
      const std::size_t near_len = far_begin - degree_end[i];
      rank1_add_rows(a_base, hp, ws.flips, degree_end[i], col, near_len);
      if (far_len > 0) {
        ws.col_ptrs[i - b0] = col + near_len;
        const std::uint64_t bit = std::uint64_t(1) << (i - b0);
        for (const std::uint32_t k : ws.flips) ws.flip_masks[k] |= bit;
      }
    }
    if (far_len > 0) {
      for (std::size_t k = 0; k < bs; ++k) {
        if (ws.flip_masks[k] == 0) continue;
        accumulate_masked_cols(a_base + k * hp + far_begin, ws.flip_masks[k],
                               ws.col_ptrs.data(), far_len);
      }
    }
  }

  // Frozen tail: A1 is final, so every remaining site's logits come from
  // one blocked pass (bitwise identical per cell to the per-site kernel)
  // and the draw loop just walks the precomputed rows.  No rank-1 update:
  // these columns are empty.  Rectify once into a pad-to-8 aligned-stride
  // copy so the ~(n - h) remaining sites stream plain dots from
  // cache-line-aligned rows instead of re-applying relu under every fma
  // over split loads — same accumulation structure, same bits, roughly
  // half the load-port pressure.
  ensure_shape(ws.h1_pad, bs, hp);
  Real* hp_base = ws.h1_pad.data();
  for (std::size_t k = 0; k < bs; ++k) {
    const Real* src = a_base + k * hp;
    Real* dst = hp_base + k * hp;
    for (std::size_t l = 0; l < h; ++l) dst[l] = src[l] > 0 ? src[l] : Real(0);
  }
  ensure_shape(ws.tail_logits, n - frozen, bs);
  dot_prefix_block(w2, degree_end, frozen, hp_base, hp, bs, ws.tail_logits);
  for (std::size_t i = frozen; i < n; ++i)
    draw_site(i, ws.tail_logits.row(i - frozen).data(),
              /*record_flips=*/false);
  return nonfinite;
}

}  // namespace vqmc
