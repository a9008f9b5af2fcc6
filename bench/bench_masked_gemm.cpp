/// \file bench_masked_gemm.cpp
/// \brief Three-way masked MADE forward throughput: dense-scalar vs
/// prefix-scalar vs SIMD (DESIGN.md §5f/§5g).
///
/// The three timed paths retrace the kernel lineage:
///
///  - *dense-scalar* (pre-plan, PR 4 era): per-call `M .* W`
///    materialization, then scalar dense gemms over the full weight
///    matrices (vqmc::ref) — every multiply against a masked-out entry is
///    wasted work and the materialization is a fixed per-call cost.
///  - *prefix-scalar* (the masked plan without SIMD): the scalar prefix
///    kernel ref::gemm_nt_prefix reading the weight blocks in place in the
///    parameter vector — structural zeros skipped, no SIMD.
///  - *simd* (shipped): `Made::log_psi_ws`, whose runtime-dispatched SIMD
///    prefix kernels read the same weight blocks in place.
///
/// All paths compute the same log psi values; the SIMD path must agree
/// with the scalar ones within the accumulation-order tolerance contract
/// (kernels.hpp) — verified in-run.  The headline is single-thread
/// per-call speedup at the largest size: simd over prefix-scalar
/// (target >= 3x) and simd over dense-scalar.  Emits
/// BENCH_masked_gemm.json with bench_common's provenance block (commit,
/// CPU, SIMD level, threads, compiler, build type); exits nonzero on a
/// missed target or a parity failure.  The committed artifact is a
/// full-length run:
///
///   ./build/bench/bench_masked_gemm --commit $(git rev-parse --short HEAD)

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <iostream>
#include <span>
#include <sstream>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/options.hpp"
#include "common/table.hpp"
#include "bench_common.hpp"
#include "common/timer.hpp"
#include "nn/made.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "support/made_masks.hpp"
#include "tensor/kernels.hpp"
#include "tensor/kernels_ref.hpp"
#include "tensor/simd.hpp"

using namespace vqmc;

namespace {

/// Scratch shared by the two scalar baselines (hoisted so they pay for
/// multiply work, not allocator churn).
struct ScalarScratch {
  Matrix m1, m2;    ///< dense path only: the masks, from the degree rule
  Matrix w1m, w2m;  ///< dense path only: per-call materialization target
  Matrix a1, h1, p;
};

/// The pre-plan dense path: per-call mask materialization + scalar dense
/// gemms + scalar log loop.
void dense_scalar_log_psi(const Made& made, const Matrix& batch,
                          std::span<Real> out, ScalarScratch& s) {
  const std::size_t n = made.num_spins();
  const std::size_t h = made.hidden_size();
  const std::size_t bs = batch.rows();
  const std::span<const Real> params =
      static_cast<const WavefunctionModel&>(made).parameters();
  const std::size_t off_w2 = h * n + h;

  const Real* m1 = s.m1.data();
  const Real* m2 = s.m2.data();
  for (std::size_t i = 0; i < h * n; ++i)
    s.w1m.data()[i] = m1[i] * params[i];
  for (std::size_t i = 0; i < n * h; ++i)
    s.w2m.data()[i] = m2[i] * params[off_w2 + i];

  ref::gemm_nt(batch, s.w1m, s.a1);
  add_row_broadcast(s.a1, made.bias1());
  s.h1 = s.a1;
  relu_inplace(s.h1);
  ref::gemm_nt(s.h1, s.w2m, s.p);
  add_row_broadcast(s.p, made.bias2());
  ref::sigmoid_inplace(s.p);

  for (std::size_t k = 0; k < bs; ++k)
    out[k] =
        ref::bernoulli_log_likelihood(batch.row(k), s.p.row(k).data(), 1e-12) /
        2;
}

/// The prefix-scalar path: the scalar prefix kernels over the weight
/// blocks, which they read in place (only in-mask entries are touched).
void prefix_scalar_log_psi(const Made& made, const Matrix& batch,
                           std::span<Real> out, ScalarScratch& s) {
  const std::size_t n = made.num_spins();
  const std::size_t h = made.hidden_size();
  const std::size_t bs = batch.rows();
  const std::span<const Real> params =
      static_cast<const WavefunctionModel&>(made).parameters();
  const ConstMatrixView w1(params.data(), h, n);
  ref::gemm_nt_prefix(batch, w1, made.plan().degree, s.a1);
  add_row_broadcast(s.a1, made.bias1());
  s.h1 = s.a1;
  relu_inplace(s.h1);
  ref::gemm_nt_prefix(s.h1, made.w2(), made.plan().degree_end, s.p);
  add_row_broadcast(s.p, made.bias2());
  ref::sigmoid_inplace(s.p);
  for (std::size_t k = 0; k < bs; ++k)
    out[k] =
        ref::bernoulli_log_likelihood(batch.row(k), s.p.row(k).data(), 1e-12) /
        2;
}

/// Median per-call milliseconds over `repeats` timed blocks of `calls`.
double time_per_call_ms(const std::function<void()>& fn, std::size_t calls,
                        int repeats) {
  std::vector<double> samples;
  samples.reserve(std::size_t(repeats));
  for (int r = 0; r < repeats; ++r) {
    Timer timer;
    for (std::size_t c = 0; c < calls; ++c) fn();
    samples.push_back(timer.milliseconds() / double(calls));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

struct SizeResult {
  std::size_t spins = 0;
  std::size_t hidden = 0;
  double dense_ms = 0;
  double prefix_ms = 0;
  double simd_ms = 0;
  double simd_over_prefix = 0;
  double simd_over_dense = 0;
  double parity_max_abs = 0;  ///< max |simd - scalar| over the batch
  bool parity_ok = false;
};

}  // namespace

int main(int argc, char** argv) {
  OptionParser opts("bench_masked_gemm",
                    "dense-scalar vs prefix-scalar vs SIMD masked MADE "
                    "forward throughput; writes BENCH_masked_gemm.json");
  opts.add_option("spins", "100,300,1000", "MADE sizes to sweep (headline "
                  "is the largest)");
  opts.add_option("hidden", "0", "hidden width (0 = paper default per n)");
  opts.add_option("rows", "64", "batch rows per forward call");
  opts.add_option("repeats", "5", "timed blocks per path (median reported)");
  opts.add_option("seconds", "0.2", "target measurement time per block");
  opts.add_option("out", "BENCH_masked_gemm.json", "JSON artifact path");
  opts.add_option("commit", "unknown", "commit id recorded in the artifact");
  if (!opts.parse(argc, argv)) return 0;

#ifdef _OPENMP
  // Single-thread headline: the win must come from skipped multiplies and
  // vector width, not from parallel scaling differences.
  omp_set_num_threads(1);
#endif

  std::vector<int> sizes = opts.get_int_list("spins");
  std::sort(sizes.begin(), sizes.end());
  const std::size_t rows = std::size_t(opts.get_int("rows"));
  const int repeats = opts.get_int("repeats");
  const double block_seconds = opts.get_double("seconds");
  const char* simd_level = simd::level_name(simd::active_level());

  std::cout << "single-thread masked forward, " << rows
            << " rows/call, median of " << repeats
            << " blocks, simd level " << simd_level << "\n\n";

  // Parity tolerance: log psi sums ~n terms of magnitude <= |log eps|
  // ~ 28 through re-associated dots and the polynomial log; the contract
  // bound at n = 1000 sits near 1e-11, so 1e-8 is a safe margin that still
  // catches any real kernel defect.
  const Real parity_tol = 1e-8;

  std::vector<SizeResult> results;
  bool all_parity = true;
  for (const int n_int : sizes) {
    const std::size_t n = std::size_t(n_int);
    const std::size_t h = opts.get_int("hidden") > 0
                              ? std::size_t(opts.get_int("hidden"))
                              : made_default_hidden(n);
    Made made(n, h);
    made.initialize(17);
    rng::Xoshiro256 gen(n);
    Matrix batch(rows, n);
    for (std::size_t i = 0; i < batch.size(); ++i)
      batch.data()[i] = rng::bernoulli(gen, 0.5) ? 1 : 0;

    ScalarScratch scratch{testing::made_input_mask(n, h),
                          testing::made_output_mask(n, h),
                          Matrix(h, n),
                          Matrix(n, h),
                          Matrix(rows, h),
                          Matrix(rows, h),
                          Matrix(rows, n)};
    Made::Workspace ws;
    Vector dense_out(rows), prefix_out(rows), simd_out(rows);

    // Warm every path (shapes the workspace) and check the tolerance
    // contract before timing.
    dense_scalar_log_psi(made, batch, dense_out.span(), scratch);
    prefix_scalar_log_psi(made, batch, prefix_out.span(), scratch);
    made.log_psi_ws(batch, simd_out.span(), &ws);
    Real max_abs = 0;
    for (std::size_t k = 0; k < rows; ++k) {
      max_abs = std::max(max_abs, std::abs(simd_out[k] - prefix_out[k]));
      max_abs = std::max(max_abs, std::abs(simd_out[k] - dense_out[k]));
    }
    const bool parity = max_abs <= parity_tol;
    all_parity &= parity;

    // Calibrate calls per timed block off a dense probe.
    Timer probe;
    dense_scalar_log_psi(made, batch, dense_out.span(), scratch);
    const double probe_s = std::max(probe.seconds(), 1e-6);
    const std::size_t calls = std::max<std::size_t>(
        3, std::size_t(block_seconds / probe_s));

    SizeResult r;
    r.spins = n;
    r.hidden = h;
    r.parity_max_abs = max_abs;
    r.parity_ok = parity;
    r.dense_ms = time_per_call_ms(
        [&] { dense_scalar_log_psi(made, batch, dense_out.span(), scratch); },
        calls, repeats);
    r.prefix_ms = time_per_call_ms(
        [&] { prefix_scalar_log_psi(made, batch, prefix_out.span(), scratch); },
        calls, repeats);
    r.simd_ms = time_per_call_ms(
        [&] { made.log_psi_ws(batch, simd_out.span(), &ws); }, calls, repeats);
    r.simd_over_prefix = r.simd_ms > 0 ? r.prefix_ms / r.simd_ms : 0;
    r.simd_over_dense = r.simd_ms > 0 ? r.dense_ms / r.simd_ms : 0;
    results.push_back(r);

    std::cout << "n=" << n << " h=" << h << ": dense-scalar "
              << format_fixed(r.dense_ms, 3) << " ms, prefix-scalar "
              << format_fixed(r.prefix_ms, 3) << " ms, simd "
              << format_fixed(r.simd_ms, 3) << " ms  -> "
              << format_fixed(r.simd_over_prefix, 2) << "x over prefix, "
              << format_fixed(r.simd_over_dense, 2) << "x over dense"
              << (parity ? "" : "  [PARITY FAIL]") << "\n";
  }

  const SizeResult& headline = results.back();
  const double target = 3.0;
  const bool achieved = headline.simd_over_prefix >= target;
  const bool not_slower =
      std::all_of(results.begin(), results.end(), [](const SizeResult& r) {
        return r.simd_over_prefix >= 1.0 && r.simd_over_dense >= 1.0;
      });

  std::ostringstream json;
  json << "{\n  \"bench\": \"masked_gemm\",\n"
       << bench::provenance_json(opts.get_string("commit"))
       << "  \"batch_rows\": " << rows << ",\n  \"sizes\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SizeResult& r = results[i];
    json << "    {\"spins\": " << r.spins << ", \"hidden\": " << r.hidden
         << ", \"dense_scalar_ms_per_call\": " << r.dense_ms
         << ", \"prefix_scalar_ms_per_call\": " << r.prefix_ms
         << ", \"simd_ms_per_call\": " << r.simd_ms
         << ", \"speedup_simd_over_prefix\": " << r.simd_over_prefix
         << ", \"speedup_simd_over_dense\": " << r.simd_over_dense
         << ", \"parity_max_abs_diff\": " << r.parity_max_abs
         << ", \"parity_ok\": " << (r.parity_ok ? "true" : "false") << "}"
         << (i + 1 < results.size() ? ",\n" : "\n");
  }
  json << "  ],\n  \"headline\": {\"spins\": " << headline.spins
       << ", \"speedup_simd_over_prefix\": " << headline.simd_over_prefix
       << ", \"speedup_simd_over_dense\": " << headline.simd_over_dense
       << ", \"target\": " << target
       << ", \"achieved\": " << (achieved ? "true" : "false") << "},\n"
       << "  \"not_slower\": " << (not_slower ? "true" : "false") << ",\n"
       << "  \"parity_ok\": " << (all_parity ? "true" : "false") << "\n}\n";

  const std::string out = opts.get_string("out");
  std::ofstream file(out);
  file << json.str();

  std::cout << "\nheadline n=" << headline.spins << " simd speedup "
            << format_fixed(headline.simd_over_prefix, 2)
            << "x over prefix-scalar (target >= " << format_fixed(target, 1)
            << "x: " << (achieved ? "ACHIEVED" : "MISSED") << "), "
            << format_fixed(headline.simd_over_dense, 2)
            << "x over dense-scalar; wrote " << out << "\n";
  if (!all_parity) {
    std::cout << "FAIL: simd path outside the tolerance contract\n";
    return 1;
  }
  if (!not_slower) {
    std::cout << "FAIL: simd path slower than a scalar baseline somewhere\n";
    return 1;
  }
  return achieved ? 0 : 1;
}
