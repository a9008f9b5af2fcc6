/// \file test_masked_plan.cpp
/// \brief Pins the masked compute plan (DESIGN.md §5f/§5g): the prefix
/// kernel path must match the dense masked path it replaced within the
/// accumulation-order tolerance contract of kernels.hpp (the SIMD kernels
/// re-associate sums, so bit-for-bit equality against the dense path no
/// longer holds — but results stay deterministic and batch-position
/// independent), the autoregressive property must survive the rewrite,
/// and, with no derived copy of the weights anywhere, a write through a
/// held parameters() span must reach the next evaluation, allocate
/// nothing on a warm workspace and tolerate concurrent readers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "nn/made.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "sampler/fast_made_sampler.hpp"
#include "support/alloc_count.hpp"
#include "support/made_masks.hpp"
#include "tensor/kernels.hpp"
#include "tensor/kernels_ref.hpp"

namespace vqmc {
namespace {

Matrix random_bits(std::size_t bs, std::size_t n, std::uint64_t seed) {
  rng::Xoshiro256 gen(seed);
  Matrix batch(bs, n);
  for (std::size_t i = 0; i < batch.size(); ++i)
    batch.data()[i] = rng::bernoulli(gen, 0.5) ? 1 : 0;
  return batch;
}

void randomize_parameters(WavefunctionModel& model, std::uint64_t seed) {
  rng::Xoshiro256 gen(seed);
  for (Real& p : model.parameters()) p = rng::uniform(gen, -0.8, 0.8);
}

/// Dense reference replicating the pre-plan code path: materialize
/// `M .* W` with the masks built from the documented degree rule, run dense
/// gemms, apply the mask elementwise to the weight gradients.  The prefix
/// path must match it within the tolerance contract (dense and prefix
/// kernels split accumulations differently under SIMD); the W1 column
/// packing still copies its values bit-for-bit.
struct DenseReference {
  std::size_t n, h;
  Matrix w1m, w2m;  ///< mask .* W, materialized the old way
  Vector b1, b2;

  explicit DenseReference(const Made& made)
      : n(made.num_spins()), h(made.hidden_size()), b1(h), b2(n) {
    const std::span<const Real> p = std::as_const(made).parameters();
    const Matrix m1 = testing::made_input_mask(n, h);
    const Matrix m2 = testing::made_output_mask(n, h);
    w1m = Matrix(h, n);
    w2m = Matrix(n, h);
    const std::size_t off_b1 = h * n;
    const std::size_t off_w2 = off_b1 + h;
    const std::size_t off_b2 = off_w2 + n * h;
    for (std::size_t i = 0; i < h * n; ++i)
      w1m.data()[i] = m1.data()[i] * p[i];
    for (std::size_t i = 0; i < h; ++i) b1[i] = p[off_b1 + i];
    for (std::size_t i = 0; i < n * h; ++i)
      w2m.data()[i] = m2.data()[i] * p[off_w2 + i];
    for (std::size_t i = 0; i < n; ++i) b2[i] = p[off_b2 + i];
  }

  void forward(const Matrix& batch, Matrix& a1, Matrix& h1, Matrix& p) const {
    const std::size_t bs = batch.rows();
    a1 = Matrix(bs, h);
    gemm_nt(batch, w1m, a1);
    add_row_broadcast(a1, b1.span());
    h1 = a1;
    relu_inplace(h1);
    p = Matrix(bs, n);
    gemm_nt(h1, w2m, p);
    add_row_broadcast(p, b2.span());
    sigmoid_inplace(p);
  }

  void log_psi(const Matrix& batch, std::span<Real> out) const {
    Matrix a1, h1, p;
    forward(batch, a1, h1, p);
    const auto clamped_log = [](Real v) {
      return std::log(std::max(v, Real(1e-12)));  // kProbEps, as in made.cpp
    };
    for (std::size_t k = 0; k < batch.rows(); ++k) {
      Real log_pi = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const Real x = batch(k, i);
        log_pi += x * clamped_log(p(k, i)) + (1 - x) * clamped_log(1 - p(k, i));
      }
      out[k] = log_pi / 2;
    }
  }

  void accumulate_gradient(const Made& made, const Matrix& batch,
                           std::span<const Real> coeff,
                           std::span<Real> grad) const {
    const std::size_t bs = batch.rows();
    Matrix a1, h1, p;
    forward(batch, a1, h1, p);
    const std::size_t off_b1 = h * n;
    const std::size_t off_w2 = off_b1 + h;
    const std::size_t off_b2 = off_w2 + n * h;

    Matrix g2(bs, n);
    for (std::size_t k = 0; k < bs; ++k)
      for (std::size_t i = 0; i < n; ++i)
        g2(k, i) = coeff[k] / 2 * (batch(k, i) - p(k, i));

    const Matrix m1 = testing::made_input_mask(n, made.hidden_size());
    const Matrix m2 = testing::made_output_mask(n, made.hidden_size());
    Matrix dw2(n, h);  // zero-initialized
    gemm_tn_accumulate(g2, h1, dw2);
    for (std::size_t i = 0; i < n * h; ++i)
      grad[off_w2 + i] += m2.data()[i] * dw2.data()[i];
    column_sum_accumulate(g2, grad.subspan(off_b2, n));

    Matrix g1(bs, h);
    ref::gemm_nn(g2, w2m, g1);
    relu_backward_inplace(a1, g1);

    Matrix dw1(h, n);
    gemm_tn_accumulate(g1, batch, dw1);
    for (std::size_t i = 0; i < h * n; ++i)
      grad[i] += m1.data()[i] * dw1.data()[i];
    column_sum_accumulate(g1, grad.subspan(off_b1, h));
  }

  void per_sample_gradient(const Made& made, const Matrix& batch,
                           Matrix& out) const {
    const std::size_t bs = batch.rows();
    Matrix a1m, h1m, pm;
    forward(batch, a1m, h1m, pm);
    const std::size_t off_b1 = h * n;
    const std::size_t off_w2 = off_b1 + h;
    const std::size_t off_b2 = off_w2 + n * h;
    const Matrix m1 = testing::made_input_mask(n, made.hidden_size());
    const Matrix m2 = testing::made_output_mask(n, made.hidden_size());
    std::vector<Real> g1(h);
    for (std::size_t k = 0; k < bs; ++k) {
      Real* o = out.row(k).data();
      std::fill_n(o, out.cols(), Real(0));
      std::fill(g1.begin(), g1.end(), Real(0));
      for (std::size_t i = 0; i < n; ++i) {
        const Real g2 = (batch(k, i) - pm(k, i)) / 2;
        o[off_b2 + i] = g2;
        for (std::size_t l = 0; l < h; ++l) {
          o[off_w2 + i * h + l] = m2(i, l) * g2 * h1m(k, l);
          g1[l] += g2 * w2m(i, l);
        }
      }
      for (std::size_t l = 0; l < h; ++l) {
        const Real g = (a1m(k, l) > 0) ? g1[l] : 0;
        o[off_b1 + l] = g;
        for (std::size_t j = 0; j < n; ++j)
          o[l * n + j] = m1(l, j) * g * batch(k, j);
      }
    }
  }
};

TEST(MaskedPlan, W1ExtentsArePrefixIntervals) {
  // W1 row k's length is unit k's degree m_k, ascending.
  const std::size_t n = 7, h = 15;
  const Made made(n, h);
  const std::vector<std::size_t> degrees = testing::made_degrees(n, h);
  ASSERT_EQ(made.plan().degree.size(), h);
  for (std::size_t k = 0; k < h; ++k)
    EXPECT_EQ(made.plan().degree[k], degrees[k]) << "hidden row " << k;
}

TEST(MaskedPlan, ExtentsRoundTripBothMasks) {
  // The model keeps its masks only as prefix lengths; expanded back to
  // dense 0/1 matrices they must be exactly the degree rule's masks, with
  // one unit per degree (h <= n - 1) and several (maxcut_sr's (64, 86),
  // Table 1's n = 100, a (130, 300) spanning three 64-site blocks).  The
  // column packing holds every W1 mask entry.
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {2, 1}, {2, 5}, {9, 8}, {9, 14}, {64, 86}, {100, 106}, {130, 300}};
  const auto rebuild = [](const std::vector<std::size_t>& len,
                          std::size_t cols) {
    Matrix m(len.size(), cols);
    for (std::size_t r = 0; r < len.size(); ++r)
      for (std::size_t j = 0; j < len[r]; ++j) m(r, j) = 1.0;
    return m;
  };
  for (const auto& [n, h] : shapes) {
    SCOPED_TRACE("n " + std::to_string(n) + " h " + std::to_string(h));
    const Made made(n, h);
    const MaskedPlan& plan = made.plan();
    ASSERT_EQ(plan.degree.size(), h);
    ASSERT_EQ(plan.degree_end.size(), n);
    const Matrix m1 = rebuild(plan.degree, n);
    const Matrix m2 = rebuild(plan.degree_end, h);
    const Matrix want1 = testing::made_input_mask(n, h);
    const Matrix want2 = testing::made_output_mask(n, h);
    for (std::size_t i = 0; i < m1.size(); ++i)
      ASSERT_EQ(m1.data()[i], want1.data()[i]) << "W1 entry " << i;
    for (std::size_t i = 0; i < m2.size(); ++i)
      ASSERT_EQ(m2.data()[i], want2.data()[i]) << "W2 entry " << i;
    std::size_t nnz1 = 0;
    for (const std::size_t m : plan.degree) nnz1 += m;
    EXPECT_EQ(plan.w1_col_offsets.back(), nnz1);
  }
}

TEST(MaskedPlan, PackedWeightsMatchMaskedParameters) {
  // The column packing holds each W1 column's in-mask values, ascending
  // unit, at the plan's offsets, bit for bit, with M from the degree rule.
  Made made(8, 13);
  randomize_parameters(made, 31);
  const DenseReference ref(made);
  Vector packed;
  made.pack_w1_columns(packed);
  const Matrix m1 = testing::made_input_mask(8, 13);
  const std::vector<std::size_t>& offsets = made.plan().w1_col_offsets;
  ASSERT_EQ(offsets.size(), 9u);
  ASSERT_EQ(packed.size(), offsets.back());
  for (std::size_t j = 0; j < 8; ++j) {
    std::size_t t = offsets[j];
    for (std::size_t k = 0; k < 13; ++k) {
      if (m1(k, j) == 0) continue;
      ASSERT_LT(t, offsets[j + 1]) << "column " << j;
      EXPECT_EQ(packed[t++], ref.w1m(k, j)) << k << "," << j;
    }
    EXPECT_EQ(t, offsets[j + 1]) << "column " << j;
  }
}

// Tolerances for prefix-vs-dense comparisons.  Activations and gradients
// are O(1) sums of at most max(n, h) ~ 20 O(1) terms, so the
// accumulation-order bound 2*L*eps*sum|t| sits around 1e-14; log_psi adds
// the vector-log's ~4-ulp core on values as large as |log eps| ~ 28.  The
// 1e-10 margins below are ~1e4 above both bounds while still catching any
// real kernel defect (which perturbs results at the 1e-2+ level).
constexpr Real kForwardTol = 1e-12;
constexpr Real kLogPsiTol = 1e-10;
constexpr Real kGradTol = 1e-10;

TEST(MaskedPlan, ConditionalsMatchDenseReference) {
  for (std::uint64_t seed : {41, 42, 43}) {
    Made made(10, 17);
    randomize_parameters(made, seed);
    const Matrix batch = random_bits(33, 10, seed + 100);
    const DenseReference ref(made);
    Matrix a1, h1, want;
    ref.forward(batch, a1, h1, want);
    Matrix got;
    made.conditionals(batch, got);
    ASSERT_EQ(got.rows(), want.rows());
    ASSERT_EQ(got.cols(), want.cols());
    for (std::size_t i = 0; i < want.size(); ++i)
      EXPECT_NEAR(got.data()[i], want.data()[i], kForwardTol)
          << "seed " << seed;

    Matrix again;  // same path, same input: bitwise deterministic
    made.conditionals(batch, again);
    for (std::size_t i = 0; i < want.size(); ++i)
      EXPECT_EQ(got.data()[i], again.data()[i]) << "seed " << seed;
  }
}

TEST(MaskedPlan, LogPsiMatchesDenseReference) {
  for (std::uint64_t seed : {51, 52, 53}) {
    Made made(11, 16);
    randomize_parameters(made, seed);
    const Matrix batch = random_bits(29, 11, seed + 100);
    const DenseReference ref(made);
    Vector want(29), got(29), again(29);
    ref.log_psi(batch, want.span());
    made.log_psi(batch, got.span());
    for (std::size_t k = 0; k < 29; ++k)
      EXPECT_NEAR(got[k], want[k], kLogPsiTol)
          << "seed " << seed << " row " << k;
    made.log_psi(batch, again.span());  // deterministic
    for (std::size_t k = 0; k < 29; ++k)
      EXPECT_EQ(got[k], again[k]) << "seed " << seed << " row " << k;
  }
}

TEST(MaskedPlan, BatchGradientMatchesDenseReference) {
  Made made(9, 14);
  randomize_parameters(made, 61);
  const std::size_t bs = 21;
  const Matrix batch = random_bits(bs, 9, 62);
  Vector coeff(bs);
  rng::Xoshiro256 gen(63);
  for (std::size_t k = 0; k < bs; ++k) coeff[k] = rng::uniform(gen, -1.0, 1.0);

  const std::size_t d = made.num_parameters();
  Vector want(d), got(d);
  const DenseReference ref(made);
  ref.accumulate_gradient(made, batch, coeff.span(), want.span());
  made.accumulate_log_psi_gradient(batch, coeff.span(), got.span());
  for (std::size_t i = 0; i < d; ++i)
    EXPECT_NEAR(got[i], want[i], kGradTol) << "parameter " << i;
}

TEST(MaskedPlan, PerSampleGradientMatchesDenseReference) {
  Made made(8, 12);
  randomize_parameters(made, 71);
  const std::size_t bs = 13;
  const Matrix batch = random_bits(bs, 8, 72);
  const std::size_t d = made.num_parameters();

  Matrix want(bs, d), got(bs, d);
  const DenseReference ref(made);
  ref.per_sample_gradient(made, batch, want);
  made.log_psi_gradient_per_sample(batch, got);
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_NEAR(got.data()[i], want.data()[i], kGradTol)
        << "flat index " << i;
}

TEST(MaskedPlan, AutoregressivePropertySurvivesPackedPath) {
  // Regression for the rewrite: flipping input j must leave every
  // conditional i <= j bit-identical (no path from x_j to p_i exists).
  for (std::uint64_t seed : {81, 82, 83}) {
    const std::size_t n = 9;
    Made made(n, 15);
    randomize_parameters(made, seed);
    const Matrix base = random_bits(4, n, seed + 100);
    Matrix cond_base;
    made.conditionals(base, cond_base);
    for (std::size_t j = 0; j < n; ++j) {
      Matrix perturbed = base;
      for (std::size_t k = 0; k < perturbed.rows(); ++k)
        perturbed(k, j) = 1 - perturbed(k, j);
      Matrix cond;
      made.conditionals(perturbed, cond);
      for (std::size_t k = 0; k < perturbed.rows(); ++k)
        for (std::size_t i = 0; i <= j; ++i)
          EXPECT_EQ(cond(k, i), cond_base(k, i))
              << "seed " << seed << ": output " << i << " depends on input "
              << j;
    }
  }
}

/// The results of every Made evaluation that reads the parameters, and
/// the gradient's coefficients.
struct MadeRound {
  Vector coeff, log_psi, grad;
  Matrix ratios, draw;
};

/// log_psi, a gradient, flip ratios and one FastMadeSampler draw on `ws`
/// into `round`, with the sampler's generator restored to `rng_state`
/// first, so that two models draw from the same stream.
void evaluate_made(const Made& made, FastMadeSampler& sampler,
                   const std::vector<std::uint64_t>& rng_state,
                   const Matrix& batch, Made::Workspace& ws, MadeRound& round) {
  const std::size_t sites[] = {0, 3, made.num_spins() - 1};
  round.coeff.fill(0.25);
  round.grad.fill(0);
  made.log_psi_ws(batch, round.log_psi.span(), &ws);
  made.accumulate_log_psi_gradient_ws(batch, round.coeff.span(),
                                      round.grad.span(), &ws);
  made.log_psi_flip_ratios(batch, sites, round.ratios, &ws);
  sampler.restore_state(rng_state);
  sampler.sample_ws(round.draw, &ws);
}

MadeRound make_round(const Made& made, std::size_t bs) {
  return {Vector(bs), Vector(bs), Vector(made.num_parameters()),
          Matrix(bs, 3), Matrix(bs, made.num_spins())};
}

void expect_rounds_bitwise_equal(const MadeRound& got, const MadeRound& want) {
  for (std::size_t k = 0; k < want.log_psi.size(); ++k)
    EXPECT_EQ(got.log_psi[k], want.log_psi[k]) << "log_psi row " << k;
  for (std::size_t i = 0; i < want.grad.size(); ++i)
    EXPECT_EQ(got.grad[i], want.grad[i]) << "gradient entry " << i;
  for (std::size_t i = 0; i < want.ratios.size(); ++i)
    EXPECT_EQ(got.ratios.data()[i], want.ratios.data()[i]) << "ratio " << i;
  for (std::size_t i = 0; i < want.draw.size(); ++i)
    EXPECT_EQ(got.draw.data()[i], want.draw.data()[i]) << "draw " << i;
}

TEST(MaskedPlan, HeldSpanWritesReachEveryEvaluation) {
  // Acquire parameters() once, evaluate, then write one in-mask W1 entry
  // and one in-mask W2 entry through the held span: the next evaluation of
  // log_psi, the gradient, the flip ratios and a FastMadeSampler draw must
  // be bitwise that of a fresh model built from the new parameters.
  const std::size_t n = 9, h = 14, bs = 24;
  Made made(n, h);
  const std::span<Real> params = made.parameters();
  rng::Xoshiro256 gen(131);
  for (Real& p : params) p = rng::uniform(gen, -0.8, 0.8);
  const Matrix batch = random_bits(bs, n, 132);
  FastMadeSampler sampler(made, 133);
  const std::vector<std::uint64_t> state = sampler.serialize_state();
  Made::Workspace ws;
  MadeRound before = make_round(made, bs);
  evaluate_made(made, sampler, state, batch, ws, before);

  // W1(0, 0) and W2(1, 0): unit 0 has degree 1, so it reads input 0 and
  // feeds output 1 onwards; every later conditional, and so the draw,
  // moves with them.
  params[0] += 3.0;
  params[h * n + h + h] -= 3.0;
  MadeRound after = make_round(made, bs);
  evaluate_made(made, sampler, state, batch, ws, after);

  Made fresh(n, h);
  const std::span<const Real> src = std::as_const(made).parameters();
  std::copy(src.begin(), src.end(), fresh.parameters().begin());
  FastMadeSampler fresh_sampler(fresh, 0);
  Made::Workspace fresh_ws;
  MadeRound want = make_round(fresh, bs);
  evaluate_made(fresh, fresh_sampler, state, batch, fresh_ws, want);
  expect_rounds_bitwise_equal(after, want);

  bool moved = false;
  for (std::size_t k = 0; k < bs; ++k)
    moved |= after.log_psi[k] != before.log_psi[k];
  EXPECT_TRUE(moved) << "the writes must change log psi";
}

TEST(MaskedPlan, WarmWorkspaceAllocatesNothingAfterAParameterWrite) {
  // Nothing is derived from the parameter values but W1's column packing,
  // which lives in the workspace: once a round of evaluations has shaped
  // the workspace, a parameter write and the same round allocate nothing,
  // the sampler's instrument lookups included.
  const std::size_t n = 40, h = 30, bs = 12;
  Made made(n, h);
  randomize_parameters(made, 93);
  const Matrix batch = random_bits(bs, n, 94);
  FastMadeSampler sampler(made, 95);
  const std::vector<std::uint64_t> state = sampler.serialize_state();
  Made::Workspace ws;
  MadeRound round = make_round(made, bs);
  evaluate_made(made, sampler, state, batch, ws, round);
  const std::uint64_t before = vqmc::testing::allocation_count();
  made.parameters()[0] += 0.5;  // W1(0, 0), in-mask
  evaluate_made(made, sampler, state, batch, ws, round);
  EXPECT_EQ(vqmc::testing::allocation_count(), before);
}

TEST(MaskedPlan, MakeWorkspaceFeedsVirtualWsPath) {
  Made made(8, 11);
  randomize_parameters(made, 111);
  const WavefunctionModel& model = made;
  const Matrix batch = random_bits(17, 8, 112);

  const auto ws = model.make_workspace();
  ASSERT_NE(ws, nullptr);
  Vector plain(17), with_ws(17);
  model.log_psi(batch, plain.span());
  model.log_psi_ws(batch, with_ws.span(), ws.get());
  for (std::size_t k = 0; k < 17; ++k) EXPECT_EQ(with_ws[k], plain[k]);

  // Null workspace falls back to the plain path.
  Vector null_ws(17);
  model.log_psi_ws(batch, null_ws.span(), nullptr);
  for (std::size_t k = 0; k < 17; ++k) EXPECT_EQ(null_ws[k], plain[k]);
}

TEST(MaskedPlan, ConcurrentReadersShareOneCacheRebuild) {
  // Frozen parameters, many threads: the model holds no shared mutable
  // state, so every reader must observe identical evaluations.  Run under
  // TSan in CI.
  Made made(12, 18);
  randomize_parameters(made, 121);
  const Matrix batch = random_bits(24, 12, 122);
  Vector expected(24);
  made.log_psi(batch, expected.span());

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<int> ok(kThreads, 0);
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      bool good = true;
      for (int iter = 0; iter < 20; ++iter) {
        Made::Workspace ws;
        Vector out(24);
        made.log_psi_ws(batch, out.span(), &ws);
        for (std::size_t k = 0; k < 24; ++k) good &= out[k] == expected[k];
      }
      ok[std::size_t(t)] = good ? 1 : 0;
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(ok[std::size_t(t)], 1);
}

}  // namespace
}  // namespace vqmc
