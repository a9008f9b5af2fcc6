/// \file test_simd_kernels.cpp
/// \brief Pins the SIMD kernel rewrite (DESIGN.md §5g) against the scalar
/// references in kernels_ref.hpp.
///
/// Three properties of the accumulation-order contract are exercised at
/// every compiled-in dispatch level (generic / AVX2 / AVX-512, via
/// simd::force_level):
///
///  1. Parity within the documented ULP bound: for every dot-form output
///     element e with reduction terms t_i,
///     |e_simd - e_ref| <= 2 * L * eps * sum_i |t_i|  (L = reduction
///     length, eps = DBL_EPSILON) — the worst case over any
///     re-association of the sum.
///  2. Run-to-run bitwise determinism, including independence from the
///     OpenMP thread count.
///  3. Batch-position independence: a row's value is bitwise the same
///     whether it is computed alone or inside any larger batch.
///
/// The masked kernels take one prefix length per weight row.  Edge cases
/// the blocking must survive (exercised at every level, and by the
/// sanitizer CI leg): rows of length 0, whole rows, single-column rows,
/// prefixes shorter than a vector, and sub-vector tails at every length
/// around the register width.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/error.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "tensor/kernels.hpp"
#include "tensor/kernels_ref.hpp"
#include "tensor/simd.hpp"

namespace vqmc {
namespace {

constexpr Real kEps = std::numeric_limits<Real>::epsilon();

Matrix random_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  rng::Xoshiro256 gen(seed);
  Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i)
    m.data()[i] = rng::uniform(gen, -1.0, 1.0);
  return m;
}

/// Random prefix lengths for a rows x cols operand, uniform in [0, cols],
/// with row 0 empty, row 1 whole and row 2 a single column (when present).
std::vector<std::size_t> random_lengths(std::size_t rows, std::size_t cols,
                                        std::uint64_t seed) {
  rng::Xoshiro256 gen(seed);
  std::vector<std::size_t> len(rows);
  for (std::size_t& l : len) l = std::size_t(rng::uniform_index(gen, cols + 1));
  if (rows > 0) len[0] = 0;
  if (rows > 1) len[1] = cols;
  if (rows > 2) len[2] = 1;
  return len;
}

/// The contract's worst-case re-association bound for one reduction.
Real ulp_bound(std::size_t terms, Real abs_sum) {
  return 2 * Real(terms) * kEps * abs_sum;
}

/// Restores full dispatch when a test that forces a level exits.
struct LevelGuard {
  ~LevelGuard() { simd::force_level(simd::detected_level()); }
};

/// Levels to test: everything the CPU and build support, lowest first.
std::vector<simd::Level> testable_levels() {
  std::vector<simd::Level> levels = {simd::Level::kGeneric};
  if (simd::detected_level() >= simd::Level::kAvx2)
    levels.push_back(simd::Level::kAvx2);
  if (simd::detected_level() >= simd::Level::kAvx512)
    levels.push_back(simd::Level::kAvx512);
  return levels;
}

/// One activation row through the batched ReLU-dot kernel (rows = 1, so
/// the leading dimension is never read).
Real relu_dot_one_row(ConstMatrixView w, std::span<const std::size_t> len,
                      std::size_t row, const Real* a) {
  Real out = 0;
  relu_dot_prefix_batch(w, len, row, a, 0, 1, &out);
  return out;
}

/// The same through the scalar reference.
Real ref_relu_dot_one_row(ConstMatrixView w, std::span<const std::size_t> len,
                          std::size_t row, const Real* a) {
  Real out = 0;
  ref::relu_dot_prefix_batch(w, len, row, a, 0, 1, &out);
  return out;
}

/// sum over c < len[row] of |max(a[c], 0) w(row, c)|, the terms' magnitude
/// for the ULP bound of a ReLU dot.
Real relu_dot_abs_sum(ConstMatrixView w, std::span<const std::size_t> len,
                      std::size_t row, const Real* a) {
  Real abs_sum = 0;
  for (std::size_t c = 0; c < len[row]; ++c)
    abs_sum += std::abs(std::max(a[c], Real(0)) * w.row(row)[c]);
  return abs_sum;
}

/// One masked problem instance: a (m x k), an unmasked b (n x k) and one
/// prefix length per b row — shapes chosen per test.  Entries of b past a
/// row's prefix are live values, so reading one shows up in the result.
struct MaskedCase {
  Matrix a, b;
  std::vector<std::size_t> len;

  MaskedCase(std::size_t m, std::size_t n, std::size_t k, std::uint64_t seed)
      : a(random_matrix(m, k, seed + 1)),
        b(random_matrix(n, k, seed + 2)),
        len(random_lengths(n, k, seed)) {}
};

// ---------------------------------------------------------------------------
// Parity sweep: every dispatch level vs the scalar reference, sizes from
// single elements through n = 1000, random prefix lengths with empty,
// whole and single-column rows, thread counts 1 and 8.
// ---------------------------------------------------------------------------

void expect_gemm_parity_at_current_level(const MaskedCase& mc,
                                         const char* label) {
  const std::size_t m = mc.a.rows(), n = mc.b.rows(), k = mc.b.cols();
  Matrix want(m, n), got(m, n);
  ref::gemm_nt_prefix(mc.a, mc.b, mc.len, want);
  gemm_nt_prefix(mc.a, mc.b, mc.len, got);
  for (std::size_t r = 0; r < m; ++r)
    for (std::size_t j = 0; j < n; ++j) {
      Real abs_sum = 0;
      for (std::size_t c = 0; c < mc.len[j]; ++c)
        abs_sum += std::abs(mc.a(r, c) * mc.b(j, c));
      EXPECT_NEAR(got(r, j), want(r, j), ulp_bound(mc.len[j], abs_sum))
          << label << " C(" << r << "," << j << ") L=" << mc.len[j];
    }

  // The axpy-form kernels over the same lengths: C = A' B with B = mc.b
  // (n x k) read over each row's prefix, and C += A'^T B' restricted to
  // each C row's prefix.  Axpy chains add O(1) terms; the bound takes a
  // conservative |t| <= 1 per term.
  const Matrix a_nn = random_matrix(m, n, 7 + n);
  Matrix nn_want(m, k), nn_got(m, k);
  ref::gemm_nn_prefix(a_nn, mc.b, mc.len, nn_want);
  gemm_nn_prefix(a_nn, mc.b, mc.len, nn_got);
  for (std::size_t i = 0; i < nn_got.size(); ++i)
    EXPECT_NEAR(nn_got.data()[i], nn_want.data()[i], ulp_bound(n, Real(n)))
        << label << " nn flat " << i;

  const Matrix a_tn = random_matrix(m, n, 8 + n);
  const Matrix b_tn = random_matrix(m, k, 9 + n);
  const Matrix c0 = random_matrix(n, k, 10 + n);
  Matrix tn_want = c0, tn_got = c0;
  ref::gemm_tn_accumulate_prefix(a_tn, b_tn, mc.len, tn_want);
  gemm_tn_accumulate_prefix(a_tn, b_tn, mc.len, tn_got);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t j = 0; j < k; ++j) {
      if (j < mc.len[r])
        EXPECT_NEAR(tn_got(r, j), tn_want(r, j), ulp_bound(m + 1, Real(m + 2)))
            << label << " tn " << r << "," << j;
      else
        ASSERT_EQ(tn_got(r, j), c0(r, j)) << label << " touched past prefix";
    }
}

TEST(SimdKernels, GemmNtPanelsParitySweepAcrossLevelsSizesAndThreads) {
  LevelGuard guard;
  const std::size_t sizes[] = {1, 7, 100, 300, 1000};
  for (const simd::Level level : testable_levels()) {
    simd::force_level(level);
    for (const std::size_t n : sizes) {
      const MaskedCase mc(3, n, n, 1000 + n);
#ifdef _OPENMP
      for (const int threads : {1, 8}) {
        omp_set_num_threads(threads);
#endif
        expect_gemm_parity_at_current_level(mc, simd::level_name(level));
#ifdef _OPENMP
      }
#endif
    }
  }
}

TEST(SimdKernels, AxpyFormExtentsKernelsMatchReferenceAcrossLevels) {
  LevelGuard guard;
  for (const simd::Level level : testable_levels()) {
    simd::force_level(level);
    for (const std::size_t n : {7ul, 100ul, 300ul}) {
      // gemm_nn_prefix: a (m x k), b (k x n), one length per b row.
      const std::size_t m = 3, k = n;
      const std::vector<std::size_t> len = random_lengths(k, n, 3000 + n);
      const Matrix a = random_matrix(m, k, 3001 + n);
      const Matrix b = random_matrix(k, n, 3002 + n);
      Matrix want(m, n), got(m, n);
      ref::gemm_nn_prefix(a, b, len, want);
      gemm_nn_prefix(a, b, len, got);
      for (std::size_t i = 0; i < got.size(); ++i) {
        // Axpy chains add k O(1) terms; reuse the same re-association bound
        // with a conservative |t| <= 1 per term.
        EXPECT_NEAR(got.data()[i], want.data()[i], ulp_bound(k, Real(k)))
            << simd::level_name(level) << " nn flat " << i;
      }

      // gemm_tn_accumulate_prefix: a (k2 x m2), b (k2 x n), one length per
      // c row.
      const std::size_t k2 = 5, m2 = n;
      const std::vector<std::size_t> len2 = random_lengths(m2, n, 3100 + n);
      const Matrix a2 = random_matrix(k2, m2, 3101 + n);
      const Matrix b2 = random_matrix(k2, n, 3102 + n);
      const Matrix c0 = random_matrix(m2, n, 3103 + n);
      Matrix want2 = c0, got2 = c0;
      ref::gemm_tn_accumulate_prefix(a2, b2, len2, want2);
      gemm_tn_accumulate_prefix(a2, b2, len2, got2);
      for (std::size_t r = 0; r < m2; ++r)
        for (std::size_t j = 0; j < n; ++j) {
          if (j < len2[r])
            EXPECT_NEAR(got2(r, j), want2(r, j), ulp_bound(k2 + 1, Real(k2 + 2)))
                << simd::level_name(level) << " tn " << r << "," << j;
          else
            EXPECT_EQ(got2(r, j), c0(r, j)) << "past-prefix entry touched";
        }
    }
  }
}

// ---------------------------------------------------------------------------
// Edge cases: all rows empty, prefixes shorter than a vector, and every
// tail length around the widest register (8 doubles).
// ---------------------------------------------------------------------------

TEST(SimdKernels, AllEmptyExtentsZeroOutputsAndTouchNothing) {
  LevelGuard guard;
  for (const simd::Level level : testable_levels()) {
    simd::force_level(level);
    const std::size_t m = 4, n = 6, k = 9;
    const std::vector<std::size_t> len(n, 0);
    const Matrix a = random_matrix(m, k, 41);
    const Matrix b = random_matrix(n, k, 45);

    const Matrix c1 = random_matrix(n, k, 42);
    Matrix acc = c1;
    gemm_tn_accumulate_prefix(random_matrix(3, n, 43), random_matrix(3, k, 44),
                              len, acc);
    for (std::size_t i = 0; i < acc.size(); ++i)
      EXPECT_EQ(acc.data()[i], c1.data()[i]);  // accumulator untouched

    Matrix cp(m, n);
    cp.fill(9.0);
    gemm_nt_prefix(a, b, len, cp);
    for (std::size_t i = 0; i < cp.size(); ++i) EXPECT_EQ(cp.data()[i], 0.0);

    Real dots[m];
    relu_dot_prefix_batch(b, len, 0, a.data(), k, m, dots);
    for (const Real v : dots) EXPECT_EQ(v, 0.0);
    Matrix block(n, m);
    block.fill(9.0);
    dot_prefix_block(b, len, 0, a.data(), k, m, block);
    for (std::size_t i = 0; i < block.size(); ++i)
      EXPECT_EQ(block.data()[i], 0.0);
  }
}

TEST(SimdKernels, EveryTailLengthAroundTheVectorWidthMatchesReference) {
  LevelGuard guard;
  for (const simd::Level level : testable_levels()) {
    simd::force_level(level);
    // k sweeps through every sub-vector tail: shorter than one AVX2 lane
    // set, exact multiples, one over, and past the unrolled 2x width; the
    // second row's prefix stops one short of the first's.
    for (std::size_t k = 1; k <= 36; ++k) {
      const std::vector<std::size_t> len = {k, k - 1};
      const Matrix a = random_matrix(2, k, 500 + k);
      const Matrix b = random_matrix(2, k, 600 + k);
      Matrix want(2, 2), got(2, 2);
      ref::gemm_nt_prefix(a, b, len, want);
      gemm_nt_prefix(a, b, len, got);
      for (std::size_t r = 0; r < 2; ++r)
        for (std::size_t j = 0; j < 2; ++j) {
          Real abs_sum = 0;
          for (std::size_t c = 0; c < len[j]; ++c)
            abs_sum += std::abs(a(r, c) * b(j, c));
          EXPECT_NEAR(got(r, j), want(r, j), ulp_bound(len[j], abs_sum))
              << simd::level_name(level) << " k=" << k << " C(" << r << ","
              << j << ")";
        }
    }
  }
}

// ---------------------------------------------------------------------------
// Determinism and batch-position independence.
// ---------------------------------------------------------------------------

TEST(SimdKernels, RepeatedRunsAreBitwiseIdenticalIncludingAcrossThreadCounts) {
  const MaskedCase mc(16, 300, 300, 77);
  Matrix first(16, 300), repeat(16, 300);
  gemm_nt_prefix(mc.a, mc.b, mc.len, first);
  for (int run = 0; run < 3; ++run) {
#ifdef _OPENMP
    omp_set_num_threads(run % 2 == 0 ? 1 : 8);
#endif
    gemm_nt_prefix(mc.a, mc.b, mc.len, repeat);
    for (std::size_t i = 0; i < first.size(); ++i)
      ASSERT_EQ(first.data()[i], repeat.data()[i])
          << "run " << run << " flat " << i;
  }
#ifdef _OPENMP
  omp_set_num_threads(omp_get_num_procs());
#endif
}

TEST(SimdKernels, RowValuesAreIndependentOfBatchPosition) {
  // Contract property 3: compute a 9-row batch, then each row alone; every
  // row must be bitwise identical either way (the serving path coalesces
  // rows into batches and must never perturb a value).
  const MaskedCase mc(9, 100, 100, 88);
  Matrix full(9, 100);
  gemm_nt_prefix(mc.a, mc.b, mc.len, full);
  for (std::size_t r = 0; r < 9; ++r) {
    Matrix one(1, 100), out(1, 100);
    for (std::size_t c = 0; c < 100; ++c) one(0, c) = mc.a(r, c);
    gemm_nt_prefix(one, mc.b, mc.len, out);
    for (std::size_t j = 0; j < 100; ++j)
      ASSERT_EQ(out(0, j), full(r, j)) << "row " << r << " col " << j;
  }

  // Same property for the row-vectorized transcendental.
  Matrix logits = random_matrix(9, 100, 89);
  Matrix batch_sig = logits;
  sigmoid_inplace(batch_sig);
  for (std::size_t r = 0; r < 9; ++r) {
    Matrix row(1, 100);
    for (std::size_t c = 0; c < 100; ++c) row(0, c) = logits(r, c);
    sigmoid_inplace(row);
    for (std::size_t c = 0; c < 100; ++c)
      ASSERT_EQ(row(0, c), batch_sig(r, c)) << "row " << r << " col " << c;
  }
}

// ---------------------------------------------------------------------------
// The fused sampler primitives.
// ---------------------------------------------------------------------------

TEST(SimdKernels, ReluDotPanelsMatchesReferenceAcrossLevels) {
  LevelGuard guard;
  const Matrix w = random_matrix(5, 29, 96);
  const std::vector<std::size_t> len = random_lengths(5, 29, 95);
  const Matrix a = random_matrix(1, 29, 97);
  for (const simd::Level level : testable_levels()) {
    simd::force_level(level);
    for (std::size_t r = 0; r < 5; ++r) {
      const Real want = ref_relu_dot_one_row(w, len, r, a.row(0).data());
      const Real got = relu_dot_one_row(w, len, r, a.row(0).data());
      EXPECT_NEAR(got, want,
                  ulp_bound(len[r], relu_dot_abs_sum(w, len, r, a.data())))
          << simd::level_name(level) << " row " << r;
    }
  }
}

TEST(SimdKernels, ReluDotPanelsBatchBitwiseEqualsSingleRowAcrossLevels) {
  // The batched conditional engine's contract: out[r] of the batch kernel is
  // *bitwise* the value of a one-row call, for every batch size and row-tile
  // split — plus reference parity within the documented ULP bound.
  LevelGuard guard;
  const Matrix w = random_matrix(6, 41, 144);
  const std::vector<std::size_t> len = random_lengths(6, 41, 143);
  for (const simd::Level level : testable_levels()) {
    simd::force_level(level);
    for (const std::size_t rows : {1ul, 2ul, 3ul, 4ul, 5ul, 8ul, 9ul, 70ul}) {
      const Matrix a = random_matrix(rows, 41, 145 + rows);
      std::vector<Real> got(rows);
      for (std::size_t wr = 0; wr < 6; ++wr) {
        relu_dot_prefix_batch(w, len, wr, a.data(), 41, rows, got.data());
        for (std::size_t r = 0; r < rows; ++r) {
          const Real* ar = a.row(r).data();
          EXPECT_EQ(got[r], relu_dot_one_row(w, len, wr, ar))
              << simd::level_name(level) << " rows " << rows << " W row "
              << wr << " batch row " << r;
          EXPECT_NEAR(got[r], ref_relu_dot_one_row(w, len, wr, ar),
                      ulp_bound(len[wr], relu_dot_abs_sum(w, len, wr, ar)))
              << simd::level_name(level) << " vs reference, W row " << wr;
        }
      }
    }
  }
}

TEST(SimdKernels, ReluDotPanelsBatchSubVectorTailSweepAcrossLevels) {
  // Every reduction tail length around the register width (1..36 columns,
  // one whole row), at every level: bitwise vs a one-row call, tolerance
  // vs the scalar reference.
  LevelGuard guard;
  constexpr std::size_t kRows = 5;
  for (const simd::Level level : testable_levels()) {
    simd::force_level(level);
    for (std::size_t n = 1; n <= 36; ++n) {
      const Matrix w = random_matrix(1, n, 500 + n);
      const std::vector<std::size_t> len = {n};
      const Matrix a = random_matrix(kRows, n, 600 + n);
      Real got[kRows];
      relu_dot_prefix_batch(w, len, 0, a.data(), n, kRows, got);
      for (std::size_t r = 0; r < kRows; ++r) {
        const Real* ar = a.row(r).data();
        EXPECT_EQ(got[r], relu_dot_one_row(w, len, 0, ar))
            << simd::level_name(level) << " len " << n << " row " << r;
        EXPECT_NEAR(got[r], ref_relu_dot_one_row(w, len, 0, ar),
                    ulp_bound(n, relu_dot_abs_sum(w, len, 0, ar)))
            << simd::level_name(level) << " len " << n << " row " << r;
      }
    }
  }
}

TEST(SimdKernels, DotPanelsBlockKernelsBitwiseEqualSingleRowAcrossLevels) {
  // The conditional engine's frozen-tail kernel: dot_prefix_block on the
  // materialized relu of a block of rows must reproduce a one-row
  // relu_dot_prefix_batch call on the pre-activations bitwise for every
  // (site, row) cell — the blocked loops only reorder *which* cells are
  // computed when, never the per-cell reduction.  nsites > kColBlock so the
  // W-block loop takes more than one trip.
  LevelGuard guard;
  constexpr std::size_t kSites = 300, kCols = 37, kBegin = 41;
  const Matrix w = random_matrix(kSites, kCols, 7322);
  const std::vector<std::size_t> len = random_lengths(kSites, kCols, 7321);
  for (const simd::Level level : testable_levels()) {
    simd::force_level(level);
    for (const std::size_t rows : {1ul, 3ul, 4ul, 7ul, 8ul, 9ul, 21ul}) {
      const Matrix a = random_matrix(rows, kCols, 7400 + rows);
      Matrix relu_a(rows, kCols);
      for (std::size_t i = 0; i < a.size(); ++i)
        relu_a.data()[i] = a.data()[i] > 0 ? a.data()[i] : Real(0);
      Matrix got(kSites - kBegin, rows);
      dot_prefix_block(w, len, kBegin, relu_a.data(), kCols, rows, got);
      Matrix want(kSites - kBegin, rows);
      ref::relu_dot_prefix_block(w, len, kBegin, a.data(), kCols, rows, want);
      for (std::size_t s = kBegin; s < kSites; ++s)
        for (std::size_t r = 0; r < rows; ++r) {
          const Real* ar = a.row(r).data();
          EXPECT_EQ(got(s - kBegin, r), relu_dot_one_row(w, len, s, ar))
              << simd::level_name(level) << " rows " << rows << " site " << s
              << " row " << r;
          EXPECT_NEAR(got(s - kBegin, r), want(s - kBegin, r),
                      ulp_bound(len[s], relu_dot_abs_sum(w, len, s, ar)))
              << simd::level_name(level) << " vs reference, site " << s;
        }
    }
  }
}

TEST(SimdKernels, Rank1AddRowsBitwiseEqualsScalarWalkAcrossLevels) {
  // The engine's gathered rank-1 update: a unit fma multiplier rounds
  // exactly like the scalar +=, so the vector form must be bitwise equal to
  // the reference walk for every segment length around the register width.
  LevelGuard guard;
  constexpr std::size_t kRows = 11, kLda = 45;
  const std::vector<std::uint32_t> ids = {0, 2, 3, 7, 10};
  for (const simd::Level level : testable_levels()) {
    simd::force_level(level);
    for (std::size_t len = 0; len <= 19; ++len) {
      const std::size_t col_begin = kLda - 20;
      const Matrix vals = random_matrix(1, 20, 900 + len);
      Matrix got = random_matrix(kRows, kLda, 800 + len);
      Matrix want = got;
      rank1_add_rows(got.data(), kLda, {ids.data(), ids.size()}, col_begin,
                     vals.data(), len);
      ref::rank1_add_rows(want.data(), kLda, {ids.data(), ids.size()},
                          col_begin, vals.data(), len);
      for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got.data()[i], want.data()[i])
            << simd::level_name(level) << " len " << len << " flat " << i;
    }
  }
}

TEST(SimdKernels, AccumulateMaskedColsBitwiseEqualsAscendingAddsAcrossLevels) {
  // The engine's deferred far-segment pass: set bits must be applied in
  // ascending order with unit multipliers, bitwise equal to the naive
  // per-site walk.  Masks cover empty, sparse, dense and the top bit.
  LevelGuard guard;
  constexpr std::size_t kLen = 13;
  std::vector<Matrix> cols;
  std::vector<const Real*> ptrs;
  for (std::size_t bit = 0; bit < 64; ++bit) {
    cols.push_back(random_matrix(1, kLen, 1000 + bit));
    ptrs.push_back(cols.back().data());
  }
  const std::uint64_t masks[] = {0,
                                 1,
                                 0x8000000000000000ull,
                                 0x5a5a5a5a5a5a5a5aull,
                                 ~0ull};
  for (const simd::Level level : testable_levels()) {
    simd::force_level(level);
    for (const std::uint64_t mask : masks) {
      Matrix got = random_matrix(1, kLen, 2000);
      Matrix want = got;
      accumulate_masked_cols(got.data(), mask, ptrs.data(), kLen);
      ref::accumulate_masked_cols(want.data(), mask, ptrs.data(), kLen);
      for (std::size_t i = 0; i < kLen; ++i)
        EXPECT_EQ(got.data()[i], want.data()[i])
            << simd::level_name(level) << " mask " << std::hex << mask
            << " elem " << std::dec << i;
    }
  }
}

TEST(SimdKernels, BernoulliLogLikelihoodMatchesReferenceAcrossLevels) {
  LevelGuard guard;
  constexpr Real kProbEps = 1e-12;
  for (const simd::Level level : testable_levels()) {
    simd::force_level(level);
    for (const std::size_t n : {1ul, 7ul, 100ul, 1000ul}) {
      rng::Xoshiro256 gen(701 + n);
      Matrix x(1, n), p(1, n);
      for (std::size_t i = 0; i < n; ++i) {
        x(0, i) = rng::bernoulli(gen, 0.5) ? 1 : 0;
        p(0, i) = rng::uniform(gen, 0.0, 1.0);
      }
      p(0, 0) = 0.0;  // clamp path: log(max(., eps))
      if (n > 2) p(0, 2) = 1.0;
      const Real want =
          ref::bernoulli_log_likelihood(x.row(0), p.row(0).data(), kProbEps);
      const Real got =
          bernoulli_log_likelihood(x.row(0), p.row(0).data(), kProbEps);
      // Each term is a log in [log eps, 0] (|.| <= ~27.7), the vector log
      // itself is accurate to a few ulp, and the sum re-associates — the
      // contract bound with |t_i| <= |log eps| covers both.
      const Real bound = ulp_bound(n + 4, Real(n) * Real(28));
      EXPECT_NEAR(got, want, bound)
          << simd::level_name(level) << " n=" << n;

      const Real again =
          bernoulli_log_likelihood(x.row(0), p.row(0).data(), kProbEps);
      EXPECT_EQ(got, again);  // deterministic
    }
  }
}

// ---------------------------------------------------------------------------
// Single-flip ratio kernels (DESIGN.md §5l).
// ---------------------------------------------------------------------------

constexpr std::size_t kL = kFlipLanes;

TEST(SimdKernels, SumLogCoshMatchesReferenceForEveryTailLengthAcrossLevels) {
  LevelGuard guard;
  for (const simd::Level level : testable_levels()) {
    simd::force_level(level);
    for (std::size_t len = 1; len <= 36; ++len) {
      rng::Xoshiro256 gen(900 + len);
      std::vector<Real> x(len);
      Real scale = 0;
      for (Real& v : x) {
        v = rng::uniform(gen, -6.0, 6.0);
        scale += std::abs(v) + 1;
      }
      if (len > 3) {
        x[1] = 0;      // log cosh 0 = 0
        x[2] = 900;    // e^{-2|x|} underflows: |x| - log 2
        x[3] = -1e-9;  // quadratic regime
      }
      scale += 900;
      const Real want = ref::sum_log_cosh(x);
      const Real got = sum_log_cosh(x);
      EXPECT_NEAR(got, want, ulp_bound(len + 8, scale))
          << simd::level_name(level) << " len=" << len;
      EXPECT_EQ(got, sum_log_cosh(x));  // deterministic
    }
    std::vector<Real> with_nan = {0.5, std::numeric_limits<Real>::quiet_NaN(),
                                  -0.25, 1, 2, 3, 4, 5, 6};
    EXPECT_TRUE(std::isnan(sum_log_cosh(with_nan))) << simd::level_name(level);
  }
}

/// Random lane-major tile data (len x kFlipLanes).
std::vector<Real> random_lanes(std::size_t len, std::uint64_t seed, Real lo,
                               Real hi) {
  rng::Xoshiro256 gen(seed);
  std::vector<Real> v(len * kL);
  for (Real& e : v) e = rng::uniform(gen, lo, hi);
  return v;
}

/// The same tile with lanes reversed: lane l of the result is lane
/// kFlipLanes - 1 - l of `v`.
std::vector<Real> reverse_lanes(const std::vector<Real>& v) {
  std::vector<Real> out(v.size());
  for (std::size_t t = 0; t < v.size() / kL; ++t)
    for (std::size_t l = 0; l < kL; ++l)
      out[t * kL + l] = v[t * kL + (kL - 1 - l)];
  return out;
}

TEST(SimdKernels, ReluShiftDeltaLanesBitwiseEqualsReferenceAcrossLevels) {
  // a +- w rounds once on every path and relu/subtraction are the scalar
  // operations, so the kernel must match the oracle bit for bit.
  LevelGuard guard;
  for (const simd::Level level : testable_levels()) {
    simd::force_level(level);
    for (std::size_t len = 1; len <= 36; ++len) {
      std::vector<Real> a = random_lanes(len, 1000 + len, -1.0, 1.0);
      std::vector<Real> w = random_lanes(len, 1100 + len, -1.0, 1.0);
      w[kL + 3 < w.size() ? kL + 3 : 1] = 0;  // a unit the flip leaves alone
      const Real sign[kL] = {1, -1, -1, 1, 1, 1, -1, -1};
      a[0] = std::numeric_limits<Real>::quiet_NaN();  // relu(NaN) = 0
      std::vector<Real> want(len * kL), got(len * kL);
      ref::relu_shift_delta_lanes(a.data(), w.data(), sign, len, want.data());
      relu_shift_delta_lanes(a.data(), w.data(), sign, len, got.data());
      for (std::size_t i = 0; i < want.size(); ++i)
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                  std::bit_cast<std::uint64_t>(want[i]))
            << simd::level_name(level) << " len=" << len << " elem " << i;
    }
  }
}

TEST(SimdKernels, TriangleDotLanesMatchesReferenceForEveryTailLengthAcrossLevels) {
  LevelGuard guard;
  for (const simd::Level level : testable_levels()) {
    simd::force_level(level);
    for (std::size_t len = 1; len <= 36; ++len) {
      // Nondecreasing row sizes with repeats, ending at len: every suffix
      // length up to len, ragged four-row blocks and single-row tails.
      std::vector<std::size_t> sizes;
      for (std::size_t j = 0; j < len + 3; ++j)
        sizes.push_back(std::min(len, j * len / (len + 1) + j % 2));
      std::sort(sizes.begin(), sizes.end());
      const std::size_t rows = sizes.size();
      // W2-like rows, in-mask over their prefixes and live past them.
      const Matrix w = random_matrix(rows, len, 1200 + len);
      const std::vector<Real> a = random_lanes(len, 1300 + len, -1.0, 1.0);
      const std::vector<Real> base = random_lanes(rows, 1400 + len, -2, 2);
      for (const std::size_t j_begin : {std::size_t(0), rows / 2}) {
        const std::size_t lo = std::min(sizes[j_begin], len / 3);
        std::vector<Real> want((rows - j_begin) * kL), got(want.size());
        ref::triangle_dot_lanes(w, sizes, lo, j_begin, a.data(), base.data(),
                                want.data());
        triangle_dot_lanes(w, sizes, lo, j_begin, a.data(), base.data(),
                           got.data());
        for (std::size_t j = j_begin; j < rows; ++j)
          for (std::size_t l = 0; l < kL; ++l) {
            Real abs_sum = std::abs(base[j * kL + l]);
            for (std::size_t c = lo; c < sizes[j]; ++c)
              abs_sum += std::abs(w(j, c) * a[c * kL + l]);
            const std::size_t at = (j - j_begin) * kL + l;
            EXPECT_NEAR(got[at], want[at], ulp_bound(len + 1, abs_sum))
                << simd::level_name(level) << " len=" << len << " j=" << j;
          }
        // Each lane is one row: reversing the lanes reverses the results
        // bit for bit.
        std::vector<Real> flipped(got.size());
        triangle_dot_lanes(w, sizes, lo, j_begin, reverse_lanes(a).data(),
                           reverse_lanes(base).data(), flipped.data());
        const std::vector<Real> expect = reverse_lanes(got);
        for (std::size_t i = 0; i < got.size(); ++i)
          ASSERT_EQ(flipped[i], expect[i]) << simd::level_name(level);
      }
    }
  }
}

TEST(SimdKernels, BernoulliLogitDeltaLanesMatchesReferenceForEveryTailLengthAcrossLevels) {
  LevelGuard guard;
  constexpr Real kProbEps = 1e-12;
  for (const simd::Level level : testable_levels()) {
    simd::force_level(level);
    for (std::size_t len = 1; len <= 60; ++len) {
      std::vector<Real> x = random_lanes(len, 1500 + len, 0.0, 1.0);
      for (Real& v : x) v = v < 0.5 ? 0 : 1;
      std::vector<Real> z = random_lanes(len, 1600 + len, -8.0, 8.0);
      z[0] = 40;   // 1 - p rounds to 0: the eps clamp
      if (len > 1) z[kL + 1] = -40;
      // The old terms' clamped probabilities, some at the clamp.
      std::vector<Real> base = random_lanes(len, 1700 + len, 0.05, 1.0);
      base[kL - 1] = kProbEps;
      // Whole-tile ranges (a row tile), and staggered per-lane ranges with
      // single-term lanes (a site tile); tiles starting at output 0 and at
      // 19, so the chunk blocks of 24 split the terms differently.
      std::size_t first_all[kL], last_all[kL], first_mix[kL], last_mix[kL];
      for (std::size_t l = 0; l < kL; ++l) {
        first_all[l] = 0;
        last_all[l] = len;
        first_mix[l] = (l * 5) % len;
        last_mix[l] = l % 3 == 0 ? first_mix[l] + 1 : len;
      }
      for (const std::size_t origin : {std::size_t(0), std::size_t(19)})
        for (const auto& [first, last] : {std::pair{first_all, last_all},
                                          std::pair{first_mix, last_mix}}) {
          Real want[kL], got[kL];
          ref::bernoulli_logit_delta_lanes(x.data(), z.data(), base.data(),
                                           len, origin, first, last, kProbEps,
                                           want);
          bernoulli_logit_delta_lanes(x.data(), z.data(), base.data(), len,
                                      origin, first, last, kProbEps, got);
          for (std::size_t l = 0; l < kL; ++l) {
            // Terms are logs in [log eps, 0] minus logs in [log eps, 0],
            // each off by a few ulp (polynomial exp/log and sigmoid), and
            // a chunk's log carries the ulp of its sum.
            EXPECT_NEAR(got[l], want[l], ulp_bound(len + 8, Real(len) * 56))
                << simd::level_name(level) << " len=" << len << " lane "
                << l;
          }
          // Each lane is one (row, site) pair: reversing the lanes reverses
          // the results bit for bit.
          std::size_t rfirst[kL], rlast[kL];
          for (std::size_t l = 0; l < kL; ++l) {
            rfirst[l] = first[kL - 1 - l];
            rlast[l] = last[kL - 1 - l];
          }
          Real flipped[kL];
          bernoulli_logit_delta_lanes(
              reverse_lanes(x).data(), reverse_lanes(z).data(),
              reverse_lanes(base).data(), len, origin, rfirst, rlast,
              kProbEps, flipped);
          for (std::size_t l = 0; l < kL; ++l)
            ASSERT_EQ(flipped[l], got[kL - 1 - l]) << simd::level_name(level);
        }
    }
    // A NaN logit poisons its own lane only, and only inside its range.
    std::vector<Real> x(3 * kL, 1), z(3 * kL, 0.5), base(3 * kL, 0.6);
    z[kL + 2] = std::numeric_limits<Real>::quiet_NaN();
    z[2 * kL + 5] = std::numeric_limits<Real>::quiet_NaN();
    std::size_t first[kL] = {0, 0, 0, 0, 0, 0, 0, 0};
    std::size_t last[kL] = {3, 3, 3, 3, 3, 2, 3, 3};
    Real out[kL];
    bernoulli_logit_delta_lanes(x.data(), z.data(), base.data(), 3, 0, first,
                                last, kProbEps, out);
    for (std::size_t l = 0; l < kL; ++l)
      EXPECT_EQ(std::isnan(out[l]), l == 2) << simd::level_name(level);
  }
}

TEST(SimdKernels, BernoulliLogitDeltaLanesChunksFollowAbsoluteOutputIndices) {
  // A lane's products break at absolute output indices (origin + t) that
  // are multiples of kBernoulliChunk, so its value is bitwise the same
  // whether its range starts the tile (a row tile, origin = its site) or
  // sits at any offset behind other lanes' ranges (a site tile).  Long
  // saturated runs exercise the clamp inside full chunks.
  LevelGuard guard;
  constexpr Real kProbEps = 1e-12;
  const std::size_t n = 3 * kBernoulliChunk + 7;
  for (const simd::Level level : testable_levels()) {
    simd::force_level(level);
    for (const std::size_t site : {0ul, 5ul, 23ul, 24ul, 40ul}) {
      // One lane's data over absolute outputs [site, n), logits saturated
      // every third output.
      rng::Xoshiro256 gen(1800 + site);
      std::vector<Real> xs(n), zs(n), bs(n);
      for (std::size_t j = 0; j < n; ++j) {
        xs[j] = rng::bernoulli(gen, 0.5) ? 1 : 0;
        zs[j] = j % 3 == 0 ? 35.0 : rng::uniform(gen, -6.0, 6.0);
        bs[j] = j % 4 == 0 ? kProbEps : rng::uniform(gen, 0.01, 1.0);
      }
      Real reference = 0;
      for (const std::size_t shift : {0ul, 1ul, 7ul, 24ul, 30ul}) {
        if (shift > site) continue;
        const std::size_t origin = site - shift;
        const std::size_t len = n - origin;
        // Lane 3 holds the data from t = shift; the other lanes are noise
        // over [0, len).
        std::vector<Real> x = random_lanes(len, 1900 + shift, 0.0, 1.0);
        for (Real& v : x) v = v < 0.5 ? 0 : 1;
        std::vector<Real> z = random_lanes(len, 2000 + shift, -5.0, 5.0);
        std::vector<Real> base = random_lanes(len, 2100 + shift, 0.1, 1.0);
        std::size_t first[kL], last[kL];
        for (std::size_t l = 0; l < kL; ++l) {
          first[l] = 0;
          last[l] = len;
        }
        first[3] = shift;
        for (std::size_t t = shift; t < len; ++t) {
          x[t * kL + 3] = xs[origin + t];
          z[t * kL + 3] = zs[origin + t];
          base[t * kL + 3] = bs[origin + t];
        }
        Real out[kL];
        bernoulli_logit_delta_lanes(x.data(), z.data(), base.data(), len,
                                    origin, first, last, kProbEps, out);
        if (shift == 0) reference = out[3];
        ASSERT_EQ(std::bit_cast<std::uint64_t>(out[3]),
                  std::bit_cast<std::uint64_t>(reference))
            << simd::level_name(level) << " site " << site << " shift "
            << shift;
        Real want[kL];
        ref::bernoulli_logit_delta_lanes(x.data(), z.data(), base.data(), len,
                                         origin, first, last, kProbEps, want);
        EXPECT_NEAR(out[3], want[3], ulp_bound(n + 8, Real(n) * 56))
            << simd::level_name(level) << " site " << site;
      }
    }
  }
}

/// The RBM flip path's factor table for W (h x n): n x h,
/// g(i, l) = copysign(e^{-2|W_li|}, W_li).
Matrix rbm_factor_table(const Matrix& w) {
  Matrix g(w.cols(), w.rows());
  for (std::size_t l = 0; l < w.rows(); ++l)
    for (std::size_t i = 0; i < w.cols(); ++i)
      g(i, l) = std::copysign(std::exp(-2 * std::abs(w(l, i))), w(l, i));
  return g;
}

TEST(SimdKernels, RbmFlipLogSumsMatchReferenceAcrossLevels) {
  // Unit counts around both vector widths (kW - 1, kW, kW + 1 for 4 and 8),
  // small and large weights (|W| up to 40, |theta| up to 400), chunks of
  // 1, 3 and 8 factors, and both flip directions with W's sign in both
  // positions: every factor form of y = p + q F / p F + q appears.
  LevelGuard guard;
  const std::size_t n = 6;
  const std::vector<std::size_t> sites = {0, 1, 2, 3, 4, 5, 2, 0};
  for (const simd::Level level : testable_levels()) {
    simd::force_level(level);
    for (const std::size_t h : {1ul, 3ul, 4ul, 5ul, 7ul, 8ul, 9ul, 24ul,
                                128ul}) {
      for (const Real scale : {0.5, 40.0}) {
        Matrix w = random_matrix(h, n, 2200 + h);
        for (std::size_t i = 0; i < w.size(); ++i) w.data()[i] *= scale;
        w(0, 1) = 0;
        w(h - 1, 2) = -0.0;
        const Matrix g = rbm_factor_table(w);
        const Matrix theta = random_matrix(1, h, 2300 + h);
        std::vector<Real> t(h);
        for (std::size_t l = 0; l < h; ++l) t[l] = theta(0, l) * 10 * scale;
        const Real x[n] = {0, 1, 1, 0, 0, 1};
        std::vector<Real> want(sites.size());
        ref::rbm_flip_log_sums(t, g, sites, x, want.data());
        for (const std::size_t chunk : {1ul, 3ul, 8ul}) {
          std::vector<Real> got(sites.size()), pq(2 * h);
          rbm_flip_pq(t, pq);
          rbm_flip_log_sums(pq, g, sites, x, chunk, got.data());
          for (std::size_t q = 0; q < sites.size(); ++q) {
            // Each factor's log is off by a few ulp of itself (p, q and
            // y round, the polynomial log), and a chunk's log by the ulp of
            // its sum.
            Real abs_sum = Real(h);
            for (std::size_t l = 0; l < h; ++l)
              abs_sum += 2 * std::abs(w(l, sites[q]));
            EXPECT_NEAR(got[q], want[q], ulp_bound(h + 16, abs_sum))
                << simd::level_name(level) << " h=" << h << " scale "
                << scale << " chunk " << chunk << " site " << sites[q];
          }
          std::vector<Real> again(sites.size());
          rbm_flip_pq(t, pq);
          rbm_flip_log_sums(pq, g, sites, x, chunk, again.data());
          for (std::size_t q = 0; q < sites.size(); ++q)
            ASSERT_EQ(again[q], got[q]);  // deterministic
        }
      }
    }
  }
}

TEST(SimdKernels, RbmFlipKernelsRejectAPqRowOfTheWrongLength) {
  // A p/q row is 2h long; one built for another h is a typed error, never
  // an out-of-bounds read or write.
  const std::size_t h = 5, n = 3;
  const Matrix g = rbm_factor_table(random_matrix(h, n, 2450));
  const std::vector<Real> t(h, 0.5);
  const std::vector<std::size_t> sites = {0, 2};
  const Real x[n] = {0, 1, 0};
  std::vector<Real> out(sites.size());
  for (const std::size_t len : {2 * h - 1, 2 * h + 1, h}) {
    std::vector<Real> pq(len);
    EXPECT_THROW(rbm_flip_pq(t, pq), Error) << len;
    EXPECT_THROW(rbm_flip_log_sums(pq, g, sites, x, 8, out.data()), Error)
        << len;
  }
  std::vector<Real> pq(2 * h);
  rbm_flip_pq(t, pq);
  rbm_flip_log_sums(pq, g, sites, x, 8, out.data());
  EXPECT_TRUE(std::isfinite(out[0]) && std::isfinite(out[1]));
}

TEST(SimdKernels, RbmFlipLogSumsStayFiniteOnFiniteInputsAndPropagateNan) {
  LevelGuard guard;
  const std::size_t h = 19, n = 4;
  const std::vector<std::size_t> sites = {0, 1, 2, 3};
  const Real x[n] = {0, 1, 0, 1};
  for (const simd::Level level : testable_levels()) {
    simd::force_level(level);
    // Huge weights and pre-activations: factors of e^{-2000} and below
    // underflow; the sums must stay finite, with chunks of one factor.
    Matrix w = random_matrix(h, n, 2400);
    for (std::size_t i = 0; i < w.size(); ++i) w.data()[i] *= 1000;
    w(3, 0) = 1e300;
    w(4, 1) = -1e300;
    const Matrix g = rbm_factor_table(w);
    std::vector<Real> t(h);
    for (std::size_t l = 0; l < h; ++l)
      t[l] = l % 3 == 0 ? 1e300 : (l % 3 == 1 ? -1e300 : -400.0);
    std::vector<Real> out(n), pq(2 * h);
    rbm_flip_pq(t, pq);
    rbm_flip_log_sums(pq, g, sites, x, 1, out.data());
    for (std::size_t q = 0; q < n; ++q)
      EXPECT_TRUE(std::isfinite(out[q])) << simd::level_name(level) << " "
                                         << q;
    // NaN in theta reaches every site; NaN in the table only its own.
    t[5] = std::numeric_limits<Real>::quiet_NaN();
    rbm_flip_pq(t, pq);
    rbm_flip_log_sums(pq, g, sites, x, 8, out.data());
    for (std::size_t q = 0; q < n; ++q)
      EXPECT_TRUE(std::isnan(out[q])) << simd::level_name(level) << " " << q;
    t[5] = 0.25;
    Matrix poisoned = g;
    poisoned(2, 7) = std::numeric_limits<Real>::quiet_NaN();
    rbm_flip_pq(t, pq);
    rbm_flip_log_sums(pq, poisoned, sites, x, 8, out.data());
    for (std::size_t q = 0; q < n; ++q)
      EXPECT_EQ(std::isnan(out[q]), q == 2) << simd::level_name(level);
  }
}

TEST(SimdKernels, RbmFlipTableMatchesReferenceAcrossLevels) {
  // Shapes around both vector widths, weights up to |W| = 400 (factors
  // floored at e^{-708} past 354), signed zeros and a NaN weight.
  LevelGuard guard;
  for (const simd::Level level : testable_levels()) {
    simd::force_level(level);
    for (const std::size_t h : {1ul, 3ul, 8ul, 9ul, 128ul})
      for (const std::size_t n : {1ul, 3ul, 4ul, 5ul, 7ul, 8ul, 9ul, 17ul,
                                  128ul})
        for (const Real scale : {0.5, 40.0, 400.0}) {
          Matrix w = random_matrix(h, n, 2500 + 7 * h + n);
          for (std::size_t i = 0; i < w.size(); ++i) w.data()[i] *= scale;
          w(0, 0) = -0.0;
          if (w.size() > 1) w.data()[w.size() - 1] = 0;
          Matrix want(n, h), got(n, h), want_t(n, h), got_t(n, h);
          std::vector<Real> want_abs(n), got_abs(n);
          const Real want_peak =
              ref::rbm_flip_table(w, want, want_abs, &want_t);
          const Real got_peak = rbm_flip_table(w, got, got_abs, &got_t);
          Matrix alone(n, h);
          std::vector<Real> alone_abs(n);
          ASSERT_EQ(rbm_flip_table(w, alone, alone_abs, nullptr), got_peak);
          const std::string where = std::string(simd::level_name(level)) +
                                    " h=" + std::to_string(h) +
                                    " n=" + std::to_string(n);
          ASSERT_EQ(got_peak, want_peak) << where;
          for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(got_abs[i], want_abs[i]) << where << " site " << i;
          for (std::size_t i = 0; i < want.size(); ++i) {
            const Real ref_value = want.data()[i];
            const Real value = got.data()[i];
            ASSERT_EQ(std::bit_cast<std::uint64_t>(alone.data()[i]),
                      std::bit_cast<std::uint64_t>(value))
                << where;
            ASSERT_EQ(std::bit_cast<std::uint64_t>(got_t.data()[i]),
                      std::bit_cast<std::uint64_t>(want_t.data()[i]))
                << where << " transpose entry " << i;
            ASSERT_EQ(std::signbit(value), std::signbit(ref_value)) << where;
            // The polynomial exp is within a few ulp of std::exp.
            ASSERT_LE(std::abs(value - ref_value), 4 * kEps * std::abs(ref_value))
                << where << " entry " << i;
          }
          EXPECT_EQ(got(0, 0), Real(-1)) << where;  // copysign(e^0, -0)
        }
    Matrix w = random_matrix(3, 9, 2600);
    w(1, 4) = std::numeric_limits<Real>::quiet_NaN();
    w(2, 8) = 5;
    Matrix g(9, 3);
    std::vector<Real> abs_w(9);
    EXPECT_EQ(rbm_flip_table(w, g, abs_w, nullptr), Real(5))
        << simd::level_name(level);
    for (std::size_t i = 0; i < 9; ++i)
      for (std::size_t l = 0; l < 3; ++l)
        EXPECT_EQ(std::isnan(g(i, l)), i == 4 && l == 1)
            << simd::level_name(level);
    EXPECT_TRUE(std::isnan(abs_w[4])) << simd::level_name(level);
  }
}

/// Distance of `got` from `want` in units of want's ulp.
Real ulps_from(Real got, Real want) {
  const Real mag = std::abs(want);
  const Real ulp = std::nextafter(mag, std::numeric_limits<Real>::infinity()) -
                   mag;
  return std::abs(got - want) / ulp;
}

TEST(SimdKernels, TanhStaysWithinFourUlpOfStdTanhAcrossLevels) {
  // 13 columns: one 8-wide vector plus a tail at AVX-512, three 4-wide
  // vectors plus a tail at AVX2.  |x| log-uniform over [2^-30, 40], where
  // 1 - 2 / (1 + e^{2x}) would cancel at the small end, plus a uniform
  // sweep of [-40, 40].
  LevelGuard guard;
  constexpr std::size_t kCols = 13;
  const std::size_t rows = 8192;
  rng::Xoshiro256 gen(2700);
  Matrix x(rows, kCols);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const Real mag = std::exp2(rng::uniform(gen, -30.0, std::log2(40.0)));
    x.data()[i] = i % 2 == 0 ? mag : -mag;
  }
  for (std::size_t i = 0; i < x.size() / 4; ++i)
    x.data()[i] = -40 + 80 * Real(i) / Real(x.size() / 4);
  for (const simd::Level level : testable_levels()) {
    simd::force_level(level);
    Matrix got = x;
    tanh_inplace(got);
    Real worst = 0;
    for (std::size_t i = 0; i < x.size(); ++i)
      worst = std::max(worst, ulps_from(got.data()[i], std::tanh(x.data()[i])));
    EXPECT_LE(worst, 4) << simd::level_name(level);

    // Signed zeros, saturation to exactly +-1 and NaN, in vector lanes
    // (columns 0-7) and in the tail (columns 8-12).
    const Real inf = std::numeric_limits<Real>::infinity();
    const Real nan = std::numeric_limits<Real>::quiet_NaN();
    const Real special[kCols] = {0.0,   -0.0,  25, -25,  40,  1e300, -inf,
                                 nan,   -0.0,  0.0, 300, -inf, nan};
    Matrix s(2, kCols);
    for (std::size_t c = 0; c < kCols; ++c) {
      s(0, c) = special[c];
      s(1, c) = special[kCols - 1 - c];
    }
    tanh_inplace(s);
    for (std::size_t r = 0; r < 2; ++r)
      for (std::size_t c = 0; c < kCols; ++c) {
        const Real in = r == 0 ? special[c] : special[kCols - 1 - c];
        const Real out = s(r, c);
        const std::string where = std::string(simd::level_name(level)) +
                                  " x=" + std::to_string(in);
        if (std::isnan(in)) {
          EXPECT_TRUE(std::isnan(out)) << where;
        } else if (in == 0) {
          EXPECT_EQ(out, 0) << where;
          EXPECT_EQ(std::signbit(out), std::signbit(in)) << where;
        } else {
          EXPECT_EQ(out, in > 0 ? 1 : -1) << where;
        }
      }

    // A row's values do not depend on the rows around it.
    for (std::size_t r = 0; r < 5; ++r) {
      Matrix one(1, kCols);
      for (std::size_t c = 0; c < kCols; ++c) one(0, c) = x(r, c);
      tanh_inplace(one);
      for (std::size_t c = 0; c < kCols; ++c)
        ASSERT_EQ(one(0, c), got(r, c)) << simd::level_name(level);
    }
  }
  Matrix want = x;
  ref::tanh_inplace(want);
  for (std::size_t i = 0; i < x.size(); ++i)
    ASSERT_EQ(want.data()[i], std::tanh(x.data()[i]));
}

/// Lane arithmetic of the vector tiers' polynomial exp (exp_vec in
/// kernels_arch.inc), one IEEE operation at a time: round(z / ln 2), a
/// two-part reduction, the degree-13 Taylor core in fused multiply-adds
/// and an exact scaling by 2^k.
Real exp_vec_lane(Real z) {
  const Real kd = std::nearbyint(z * 1.4426950408889634);
  Real r = z - kd * 6.93147180369123816490e-01;
  r = r - kd * 1.90821492927058770002e-10;
  const Real coeff[] = {1.0 / 479001600.0, 1.0 / 39916800.0,
                        1.0 / 3628800.0,   1.0 / 362880.0,
                        1.0 / 40320.0,     1.0 / 5040.0,
                        1.0 / 720.0,       1.0 / 120.0,
                        1.0 / 24.0,        1.0 / 6.0,
                        0.5,               1.0,
                        1.0};
  Real p = 1.0 / 6227020800.0;
  for (const Real c : coeff) p = std::fma(p, r, c);
  return p * std::ldexp(1.0, int(kd));
}

/// The vector tiers' max(a, b): a > b ? a : b, so a NaN gives b.
Real vector_max(Real a, Real b) { return a > b ? a : b; }

TEST(SimdKernels, SigmoidOneDivisionIsBitwiseTheTwoDivisionForm) {
  // sigmoid_vec divides the blended numerator (1 or e) by 1 + e once.
  // Division is correctly rounded, so every lane must equal the
  // two-division form 1/(1+e) or e/(1+e) bit for bit; rows of 16 put every
  // value in a vector lane at every tier.  The generic tier is the scalar
  // sigmoid, already one division per branch.
  LevelGuard guard;
  constexpr Real kInf = std::numeric_limits<Real>::infinity();
  std::vector<Real> values = {0.0,   -0.0,   kInf,  -kInf,
                              std::numeric_limits<Real>::quiet_NaN(),
                              708.0, -708.0, 709.0, -709.0};
  rng::Xoshiro256 gen(2500);
  while (values.size() % 16 != 0 || values.size() < 4096)
    values.push_back(rng::uniform(gen, -40.0, 40.0));
  for (const simd::Level level : testable_levels()) {
    simd::force_level(level);
    Matrix a(values.size() / 16, 16);
    std::copy(values.begin(), values.end(), a.data());
    sigmoid_inplace(a);
    for (std::size_t i = 0; i < values.size(); ++i) {
      const Real v = values[i];
      Real want;
      if (level == simd::Level::kGeneric) {
        want = sigmoid(v);
      } else if (v != v) {
        want = v;
      } else {
        const Real e = exp_vec_lane(
            vector_max(0.0 - vector_max(v, 0.0 - v), -708.0));
        want = v >= 0 ? 1 / (1 + e) : e / (1 + e);
      }
      ASSERT_EQ(std::bit_cast<std::uint64_t>(a.data()[i]),
                std::bit_cast<std::uint64_t>(want))
          << simd::level_name(level) << " x=" << v;
    }
  }
}

// ---------------------------------------------------------------------------
// made_gram, the Gram of sample-space SR (DESIGN.md §5m).
// ---------------------------------------------------------------------------

TEST(SimdKernels, MadeGramMatchesReferenceAndIsSymmetricAcrossLevels) {
  // Shapes from one sample to several row and lane tiles with tails;
  // level_end covers empty levels, several units per level and degree-0
  // units (any degree assignment is valid).  The padding lanes hold NaN:
  // they are read, but nothing of them may reach K.
  struct Shape {
    std::size_t n, h, bs;
  };
  LevelGuard guard;
  for (const simd::Level level : testable_levels()) {
    simd::force_level(level);
    for (const Shape shape : {Shape{1, 1, 1}, Shape{3, 2, 5}, Shape{5, 9, 8},
                              Shape{9, 4, 9}, Shape{12, 30, 19},
                              Shape{20, 45, 37}}) {
      const std::size_t n = shape.n, h = shape.h, bs = shape.bs;
      const std::size_t lanes = (bs + kGramLanes - 1) / kGramLanes * kGramLanes;
      rng::Xoshiro256 gen(900 + 31 * n + h + bs);
      Matrix x(n, lanes), g2(n, lanes), g1(h, lanes), h1(h, lanes);
      const Real nan = std::numeric_limits<Real>::quiet_NaN();
      for (std::size_t s = 0; s < lanes; ++s) {
        const bool pad = s >= bs;
        for (std::size_t i = 0; i < n; ++i) {
          x(i, s) = pad ? nan : (rng::bernoulli(gen, 0.5) ? 1 : 0);
          g2(i, s) = pad ? nan : rng::uniform(gen, -0.5, 0.5);
        }
        for (std::size_t u = 0; u < h; ++u) {
          g1(u, s) = pad ? nan : rng::uniform(gen, -1.0, 1.0);
          h1(u, s) = pad ? nan : rng::uniform(gen, 0.0, 2.0);
        }
      }
      std::vector<std::size_t> level_end(n);
      for (std::size_t i = 0; i < n; ++i)
        level_end[i] = i + 1 == n ? h
                                  : std::max(i > 0 ? level_end[i - 1] : 0,
                                             std::min(h, (i * h) / n + i % 2));
      Matrix want(bs, bs), got(bs, bs);
      ref::made_gram(x, g2, g1, h1, level_end, want);
      made_gram(x, g2, g1, h1, level_end, got);
      for (std::size_t s = 0; s < bs; ++s)
        for (std::size_t t = 0; t < bs; ++t) {
          // Each term is a product of two signals and a running 1 + sum.
          Real p = 1, q = 1, abs_sum = 0;
          std::size_t u = 0;
          for (std::size_t i = 0; i < n; ++i) {
            for (; u < level_end[i]; ++u) {
              abs_sum += std::abs(g1(u, s) * g1(u, t)) * p;
              q += std::abs(h1(u, s) * h1(u, t));
            }
            abs_sum += std::abs(g2(i, s) * g2(i, t)) * q;
            p += x(i, s) * x(i, t);
          }
          EXPECT_NEAR(got(s, t), want(s, t), ulp_bound(2 * (n + h), abs_sum))
              << simd::level_name(level) << " n=" << n << " h=" << h
              << " bs=" << bs << " K(" << s << "," << t << ")";
          ASSERT_EQ(got(s, t), got(t, s)) << simd::level_name(level);
        }
    }
  }
}

TEST(SimdKernels, MadeGramRejectsUnpaddedOperandsAndBadLevels) {
  Matrix x(3, 8), g2(3, 8), g1(2, 8), h1(2, 8), k(5, 5);
  const std::vector<std::size_t> ok = {0, 1, 2};
  EXPECT_NO_THROW(made_gram(x, g2, g1, h1, ok, k));
  Matrix x7(3, 7), g27(3, 7), g17(2, 7), h17(2, 7);
  EXPECT_THROW(made_gram(x7, g27, g17, h17, ok, k), Error);
  const std::vector<std::size_t> short_end = {0, 1, 1};
  EXPECT_THROW(made_gram(x, g2, g1, h1, short_end, k), Error);
  const std::vector<std::size_t> falling = {2, 1, 2};
  EXPECT_THROW(made_gram(x, g2, g1, h1, falling, k), Error);
  Matrix too_big(9, 9);
  EXPECT_THROW(made_gram(x, g2, g1, h1, ok, too_big), Error);
}

// ---------------------------------------------------------------------------
// CRC-32C, the frame and checkpoint checksum.
// ---------------------------------------------------------------------------

TEST(SimdKernels, Crc32cMatchesRfc3720VectorsAtEveryLevel) {
  // RFC 3720 §B.4 test vectors, plus the customary "123456789" check value.
  std::vector<unsigned char> zeros(32, 0x00), ones(32, 0xFF), up(32), down(32);
  for (std::size_t i = 0; i < 32; ++i) {
    up[i] = static_cast<unsigned char>(i);
    down[i] = static_cast<unsigned char>(31 - i);
  }
  const char digits[] = "123456789";
  const struct {
    const char* label;
    const void* data;
    std::size_t bytes;
    std::uint32_t crc;
  } vectors[] = {
      {"32 x 0x00", zeros.data(), 32, 0x8A9136AAu},
      {"32 x 0xFF", ones.data(), 32, 0x62A8AB43u},
      {"0x00..0x1F", up.data(), 32, 0x46DD794Eu},
      {"0x1F..0x00", down.data(), 32, 0x113FDB5Cu},
      {"123456789", digits, 9, 0xE3069283u},
  };
  for (const auto& v : vectors)
    EXPECT_EQ(ref::crc32c(0, v.data, v.bytes), v.crc) << "ref " << v.label;
  LevelGuard guard;
  for (const simd::Level level : testable_levels()) {
    simd::force_level(level);
    for (const auto& v : vectors)
      EXPECT_EQ(crc32c(0, v.data, v.bytes), v.crc)
          << simd::level_name(level) << " " << v.label;
    EXPECT_EQ(crc32c(0, nullptr, 0), 0u) << simd::level_name(level);
  }
}

TEST(SimdKernels, Crc32cEqualsReferenceForEveryLengthAlignmentAndSplit) {
  // Lengths 0..300 from each of the 8 start offsets within a word, so the
  // 8-byte loop meets every alignment and every byte-tail length; each
  // buffer is also checksummed in two chained pieces split at every
  // length's midpoint and at a word boundary.
  std::vector<unsigned char> buffer(300 + 8 + 8);
  rng::Xoshiro256 gen(0xc5c);
  for (unsigned char& b : buffer)
    b = static_cast<unsigned char>(rng::uniform(gen, 0.0, 256.0));
  LevelGuard guard;
  for (const simd::Level level : testable_levels()) {
    simd::force_level(level);
    for (std::size_t align = 0; align < 8; ++align) {
      for (std::size_t len = 0; len <= 300; ++len) {
        const unsigned char* p = buffer.data() + align;
        const std::uint32_t want = ref::crc32c(0, p, len);
        ASSERT_EQ(crc32c(0, p, len), want)
            << simd::level_name(level) << " align=" << align
            << " len=" << len;
        for (const std::size_t cut : {len / 2, std::min<std::size_t>(8, len)})
          ASSERT_EQ(crc32c(crc32c(0, p, cut), p + cut, len - cut), want)
              << simd::level_name(level) << " align=" << align
              << " len=" << len << " cut=" << cut;
      }
    }
  }
}

}  // namespace
}  // namespace vqmc
