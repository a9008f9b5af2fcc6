/// \file bench_local_energy.cpp
/// \brief Local energy through the single-flip ratio path vs the chunked
/// full-forward path, in the same run (DESIGN.md §5l).
///
/// Each case builds a dense random TIM and a MADE or RBM, then times
/// LocalEnergyEngine::compute twice on one batch: once on the model itself
/// (every TIM entry flips one site, so the engine takes the flip path) and
/// once on a forwarding wrapper that hides log_psi_flip_ratios (so the
/// engine evaluates every connected configuration with a full forward).
/// The two paths' timed blocks alternate, and the reported speedup is the
/// median of the paired ratios full / flip, so host-speed drift cancels.  The two paths must
/// agree within the documented bound kFlipRatioTolerance (local_energy.hpp)
/// relative to |H_xx| + sum_y |H_xy| psi(y)/psi(x).
///
/// Cases: MADE and RBM at n = 20, 50, 100, 128 with 256 rows, plus one
/// 1-row MADE case at n = 1000 (the serving shape).  A further case times
/// TIM's batched diagonal (one ising_diagonal call) against the per-row
/// loop (Hamiltonian::diagonal_batch's default, one diagonal call per row)
/// on 256 rows at n = 128, in alternating blocks, and checks that the two
/// agree bit for bit.  The repeats case builds, for MADE and RBM at
/// n = 128, 256-row batches drawn from D = 256, 32 and 4 distinct
/// configurations in shuffled order, and times each batch against its D
/// distinct rows alone, in alternating blocks: compute() evaluates each
/// distinct row once, so a batch should cost about what its distinct rows
/// cost.  Writes BENCH_local_energy.json; exits nonzero when the paths
/// disagree beyond the bound, when the flip path is slower than the
/// full-forward path at n = 128, when RBM's flip path is less than
/// kRbmGateSpeedup times the full-forward path at n = 128, when the
/// batched diagonal differs from the row loop, when a repeated row's
/// energy differs bitwise from its distinct row's, or when a batch at
/// D = kRepeatsGateDistinct costs more than kRepeatsGateRatio times its
/// distinct rows alone.
///
///   ./build/bench/bench_local_energy --commit $(git rev-parse --short HEAD)

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "bench_common.hpp"
#include "common/options.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "core/local_energy.hpp"
#include "hamiltonian/transverse_field_ising.hpp"
#include "nn/made.hpp"
#include "nn/rbm.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "tensor/simd.hpp"

using namespace vqmc;
using bench::block_ms;
using bench::FullForwardModel;
using bench::median;
using bench::provenance_json;
using bench::scientific;

namespace {

constexpr std::size_t kSpins[] = {20, 50, 100, 128};
constexpr std::size_t kRows = 256;
constexpr std::size_t kServeSpins = 1000;  ///< the 1-row case
constexpr std::size_t kGateSpins = 128;
/// RBM's product-form flip path must beat the full-forward path by this
/// in-run factor at n = kGateSpins (DESIGN.md §5l).
constexpr double kRbmGateSpeedup = 5.0;
/// Distinct configurations per 256-row batch in the repeats case.
constexpr std::size_t kRepeatsDistinct[] = {256, 32, 4};
/// A batch of kRepeatsGateDistinct distinct configurations may cost at most
/// kRepeatsGateRatio times its distinct rows alone: the grouping's hash,
/// gather and scatter are small next to one row's evaluation.
constexpr std::size_t kRepeatsGateDistinct = 32;
constexpr double kRepeatsGateRatio = 1.25;

/// |H| entrywise: its local energy |H_xx| + sum_y |H_xy| psi(y)/psi(x) is
/// the scale of the documented parity bound.
class AbsoluteHamiltonian final : public Hamiltonian {
 public:
  explicit AbsoluteHamiltonian(const Hamiltonian& inner) : inner_(inner) {}
  std::size_t num_spins() const override { return inner_.num_spins(); }
  std::size_t row_sparsity() const override { return inner_.row_sparsity(); }
  Real diagonal(std::span<const Real> x) const override {
    return std::abs(inner_.diagonal(x));
  }
  void for_each_off_diagonal(std::span<const Real> x,
                             const OffDiagonalVisitor& visit) const override {
    inner_.for_each_off_diagonal(
        x, [&](std::span<const std::size_t> flips, Real value) {
          visit(flips, std::abs(value));
        });
  }
  std::string name() const override {
    std::string name = "|";
    name += inner_.name();
    name += '|';
    return name;
  }

 private:
  const Hamiltonian& inner_;
};

struct CaseResult {
  std::string model;
  std::size_t spins = 0;
  std::size_t hidden = 0;
  std::size_t rows = 0;
  double flip_ms = 0;
  double full_ms = 0;
  double ratio = 0;          ///< median of paired full / flip blocks
  double max_rel_diff = 0;   ///< max_k |flip - full| / scale_k
  bool parity_ok = false;
};

CaseResult run_case(const std::string& kind, std::size_t n, std::size_t rows,
                    double block_seconds, int repeats) {
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(n, 7);
  std::unique_ptr<WavefunctionModel> model;
  std::size_t hidden = 0;
  if (kind == "MADE") {
    hidden = made_default_hidden(n);
    model = std::make_unique<Made>(n, hidden);
  } else {
    hidden = n;
    model = std::make_unique<Rbm>(n, hidden);
  }
  model->initialize(11);
  FullForwardModel full_model(*model);

  rng::Xoshiro256 gen(n * 31 + rows);
  Matrix batch(rows, n);
  for (std::size_t i = 0; i < batch.size(); ++i)
    batch.data()[i] = rng::bernoulli(gen, 0.5) ? 1 : 0;

  LocalEnergyEngine flip(tim, *model);
  LocalEnergyEngine full(tim, full_model);
  Vector flip_out(rows), full_out(rows), scale(rows);
  // Warm both paths (shapes the scratch).
  flip.compute(batch, flip_out.span());
  full.compute(batch, full_out.span());
  const AbsoluteHamiltonian abs_tim(tim);
  LocalEnergyEngine(abs_tim, *model).compute(batch, scale.span());

  CaseResult r;
  r.model = kind;
  r.spins = n;
  r.hidden = hidden;
  r.rows = rows;
  for (std::size_t k = 0; k < rows; ++k)
    r.max_rel_diff = std::max(
        r.max_rel_diff, double(std::abs(flip_out[k] - full_out[k]) / scale[k]));
  r.parity_ok = r.max_rel_diff <= kFlipRatioTolerance;

  // Calibrate calls per timed block off one full-forward call.
  Timer probe;
  full.compute(batch, full_out.span());
  const double probe_s = std::max(probe.seconds(), 1e-6);
  const std::size_t calls =
      std::max<std::size_t>(2, std::size_t(block_seconds / probe_s));
  // Alternate the two paths' blocks so host-speed drift hits both alike;
  // the ratio is the median of the per-pair ratios.
  std::vector<double> flip_ms, full_ms, ratios;
  for (int rep = 0; rep < repeats; ++rep) {
    flip_ms.push_back(
        block_ms([&] { flip.compute(batch, flip_out.span()); }, calls));
    full_ms.push_back(
        block_ms([&] { full.compute(batch, full_out.span()); }, calls));
    ratios.push_back(full_ms.back() / flip_ms.back());
  }
  r.flip_ms = median(flip_ms);
  r.full_ms = median(full_ms);
  r.ratio = median(ratios);
  return r;
}

struct DiagonalResult {
  double batched_ms = 0;
  double row_loop_ms = 0;
  double ratio = 0;  ///< median of paired row-loop / batched blocks
  bool bitwise_equal = false;
};

/// TIM's batched diagonal against the per-row loop on one batch.
DiagonalResult run_diagonal_case(std::size_t n, std::size_t rows,
                                 double block_seconds, int repeats) {
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(n, 7);
  rng::Xoshiro256 gen(n * 37 + rows);
  Matrix batch(rows, n);
  for (std::size_t i = 0; i < batch.size(); ++i)
    batch.data()[i] = rng::bernoulli(gen, 0.5) ? 1 : 0;
  Vector batched(rows), looped(rows);
  const auto batched_call = [&] { tim.diagonal_batch(batch, batched.span()); };
  const auto loop_call = [&] {
    tim.Hamiltonian::diagonal_batch(batch, looped.span());
  };
  batched_call();
  loop_call();
  DiagonalResult r;
  r.bitwise_equal = std::equal(batched.data(), batched.data() + rows,
                               looped.data(), [](Real a, Real b) {
                                 return std::bit_cast<std::uint64_t>(a) ==
                                        std::bit_cast<std::uint64_t>(b);
                               });
  Timer probe;
  loop_call();
  const double probe_s = std::max(probe.seconds(), 1e-6);
  const std::size_t calls =
      std::max<std::size_t>(2, std::size_t(block_seconds / probe_s));
  std::vector<double> batched_ms, loop_ms, ratios;
  for (int rep = 0; rep < repeats; ++rep) {
    batched_ms.push_back(block_ms(batched_call, calls));
    loop_ms.push_back(block_ms(loop_call, calls));
    ratios.push_back(loop_ms.back() / batched_ms.back());
  }
  r.batched_ms = median(batched_ms);
  r.row_loop_ms = median(loop_ms);
  r.ratio = median(ratios);
  return r;
}

struct RepeatsResult {
  std::string model;
  std::size_t distinct = 0;
  double batch_ms = 0;     ///< the 256-row batch with repeats
  double distinct_ms = 0;  ///< its distinct rows alone
  /// Median of paired all-distinct batch / this batch blocks.
  double all_distinct_over_batch = 0;
  /// Median of paired this batch / its distinct rows blocks.
  double batch_over_distinct = 0;
  bool bitwise_equal = false;
};

/// Random 0/1 rows, redrawn until no two are equal.
Matrix distinct_rows(std::size_t rows, std::size_t n, rng::Xoshiro256& gen) {
  Matrix out(rows, n);
  for (std::size_t k = 0; k < rows; ++k) {
    bool repeat = true;
    while (repeat) {
      for (std::size_t j = 0; j < n; ++j)
        out(k, j) = rng::bernoulli(gen, 0.5) ? 1 : 0;
      repeat = false;
      for (std::size_t i = 0; i < k && !repeat; ++i)
        repeat = std::equal(out.row(i).begin(), out.row(i).end(),
                            out.row(k).begin());
    }
  }
  return out;
}

/// The repeats case of one model at n = kGateSpins, every D in one loop of
/// alternating blocks so that host-speed drift cancels in the ratios.
std::vector<RepeatsResult> run_repeats_case(const std::string& kind,
                                            double block_seconds,
                                            int repeats) {
  const std::size_t n = kGateSpins;
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(n, 7);
  std::unique_ptr<WavefunctionModel> model;
  if (kind == "MADE")
    model = std::make_unique<Made>(n, made_default_hidden(n));
  else
    model = std::make_unique<Rbm>(n, n);
  model->initialize(11);

  struct Case {
    Matrix distinct;
    Matrix batch;
    std::unique_ptr<LocalEnergyEngine> batch_engine, distinct_engine;
    Vector batch_out, distinct_out;
    std::size_t batch_calls = 0, distinct_calls = 0;
    std::vector<double> batch_ms, distinct_ms;
  };
  std::vector<Case> cases;
  rng::Xoshiro256 gen(n * 41 + kRows);
  std::vector<RepeatsResult> results;
  for (const std::size_t d : kRepeatsDistinct) {
    Case c;
    c.distinct = distinct_rows(d, n, gen);
    std::vector<std::size_t> source(kRows);
    for (std::size_t k = 0; k < kRows; ++k) source[k] = k % d;
    for (std::size_t k = kRows; k-- > 1;)
      std::swap(source[k], source[std::size_t(rng::uniform_index(gen, k + 1))]);
    c.batch = Matrix(kRows, n);
    for (std::size_t k = 0; k < kRows; ++k) {
      const std::span<const Real> row = c.distinct.row(source[k]);
      std::copy(row.begin(), row.end(), c.batch.row(k).begin());
    }
    c.batch_engine = std::make_unique<LocalEnergyEngine>(tim, *model);
    c.distinct_engine = std::make_unique<LocalEnergyEngine>(tim, *model);
    c.batch_out = Vector(kRows);
    c.distinct_out = Vector(d);
    c.batch_engine->compute(c.batch, c.batch_out.span());
    c.distinct_engine->compute(c.distinct, c.distinct_out.span());

    RepeatsResult r;
    r.model = kind;
    r.distinct = d;
    r.bitwise_equal = true;
    for (std::size_t k = 0; k < kRows; ++k)
      r.bitwise_equal &= std::bit_cast<std::uint64_t>(c.batch_out[k]) ==
                         std::bit_cast<std::uint64_t>(
                             c.distinct_out[source[k]]);
    results.push_back(r);
    cases.push_back(std::move(c));
  }

  // Calls per block off one call of each.
  const auto calls_per_block = [&](const std::function<void()>& call) {
    Timer probe;
    call();
    return std::max<std::size_t>(
        2, std::size_t(block_seconds / std::max(probe.seconds(), 1e-6)));
  };
  std::vector<std::function<void()>> batch_call, distinct_call;
  for (Case& c : cases) {
    batch_call.push_back(
        [&c] { c.batch_engine->compute(c.batch, c.batch_out.span()); });
    distinct_call.push_back([&c] {
      c.distinct_engine->compute(c.distinct, c.distinct_out.span());
    });
    c.batch_calls = calls_per_block(batch_call.back());
    c.distinct_calls = calls_per_block(distinct_call.back());
  }
  std::vector<std::vector<double>> all_over_batch(cases.size()),
      batch_over_distinct(cases.size());
  for (int rep = 0; rep < repeats; ++rep) {
    for (std::size_t i = 0; i < cases.size(); ++i) {
      Case& c = cases[i];
      c.batch_ms.push_back(block_ms(batch_call[i], c.batch_calls));
      c.distinct_ms.push_back(block_ms(distinct_call[i], c.distinct_calls));
    }
    for (std::size_t i = 0; i < cases.size(); ++i) {
      all_over_batch[i].push_back(cases[0].batch_ms.back() /
                                  cases[i].batch_ms.back());
      batch_over_distinct[i].push_back(cases[i].batch_ms.back() /
                                       cases[i].distinct_ms.back());
    }
  }
  for (std::size_t i = 0; i < cases.size(); ++i) {
    results[i].batch_ms = median(cases[i].batch_ms);
    results[i].distinct_ms = median(cases[i].distinct_ms);
    results[i].all_distinct_over_batch = median(all_over_batch[i]);
    results[i].batch_over_distinct = median(batch_over_distinct[i]);
  }
  return results;
}

}  // namespace

int main(int argc, char** argv) {
  OptionParser opts("bench_local_energy",
                    "local energy: single-flip ratio path vs full-forward "
                    "path in one run; writes BENCH_local_energy.json");
  opts.add_option("repeats", "5", "timed blocks per path (median reported)");
  opts.add_option("seconds", "0.2", "target measurement time per block");
  opts.add_option("commit", "unknown", "commit id recorded in the artifact");
  opts.add_option("out", "BENCH_local_energy.json", "JSON artifact path");
  if (!opts.parse(argc, argv)) return 0;

  const int repeats = opts.get_int("repeats");
  const double block_seconds = opts.get_double("seconds");
  const char* simd_level = simd::level_name(simd::active_level());
#ifdef _OPENMP
  const int threads = omp_get_max_threads();
#else
  const int threads = 1;
#endif
  std::cout << "local energy on dense TIM, flip path vs full-forward path, "
            << threads << " thread(s), simd level " << simd_level
            << ", median of " << repeats << " blocks\n\n";

  std::vector<CaseResult> results;
  for (const std::size_t n : kSpins)
    for (const char* kind : {"MADE", "RBM"})
      results.push_back(run_case(kind, n, kRows, block_seconds, repeats));
  results.push_back(run_case("MADE", kServeSpins, 1, block_seconds, repeats));
  const DiagonalResult diagonal =
      run_diagonal_case(kGateSpins, kRows, block_seconds, repeats);
  std::vector<RepeatsResult> repeat_results;
  for (const char* kind : {"MADE", "RBM"})
    for (const RepeatsResult& r : run_repeats_case(kind, block_seconds, repeats))
      repeat_results.push_back(r);

  Table table("Local energy per compute() call");
  table.set_header({"model", "n", "h", "rows", "flip ms", "full ms",
                    "full/flip", "max rel diff"});
  bool parity_ok = true;
  bool gate_ok = true;
  bool rbm_gate_ok = true;
  for (const CaseResult& r : results) {
    table.add_row({r.model, std::to_string(r.spins), std::to_string(r.hidden),
                   std::to_string(r.rows), format_fixed(r.flip_ms, 3),
                   format_fixed(r.full_ms, 3), format_fixed(r.ratio, 2),
                   scientific(r.max_rel_diff)});
    parity_ok &= r.parity_ok;
    if (r.spins == kGateSpins) gate_ok &= r.ratio >= 1.0;
    if (r.spins == kGateSpins && r.model == "RBM")
      rbm_gate_ok &= r.ratio >= kRbmGateSpeedup;
  }
  std::cout << table.to_string();
  std::cout << "\nTIM diagonal, n = " << kGateSpins << ", " << kRows
            << " rows: batched " << format_fixed(diagonal.batched_ms, 3)
            << " ms, row loop " << format_fixed(diagonal.row_loop_ms, 3)
            << " ms, row loop/batched " << format_fixed(diagonal.ratio, 2)
            << ", bitwise equal: " << (diagonal.bitwise_equal ? "yes" : "NO")
            << "\n\n";

  Table repeats_table("Batches of " + std::to_string(kRows) +
                      " rows drawn from D distinct configurations, n = " +
                      std::to_string(kGateSpins));
  repeats_table.set_header({"model", "D", "batch ms", "D rows alone ms",
                            "all-distinct/batch", "batch/D rows",
                            "bitwise"});
  bool repeats_bitwise = true;
  bool repeats_gate_ok = true;
  for (const RepeatsResult& r : repeat_results) {
    repeats_table.add_row(
        {r.model, std::to_string(r.distinct), format_fixed(r.batch_ms, 3),
         format_fixed(r.distinct_ms, 3),
         format_fixed(r.all_distinct_over_batch, 2),
         format_fixed(r.batch_over_distinct, 2),
         r.bitwise_equal ? "yes" : "NO"});
    repeats_bitwise &= r.bitwise_equal;
    if (r.distinct == kRepeatsGateDistinct)
      repeats_gate_ok &= r.batch_over_distinct <= kRepeatsGateRatio;
  }
  std::cout << repeats_table.to_string();

  std::ostringstream json;
  json << "{\n  \"bench\": \"local_energy\",\n"
       << provenance_json(opts.get_string("commit"))
       << "  \"hamiltonian\": \"TIM random_dense\",\n"
       << "  \"parity_bound\": " << kFlipRatioTolerance << ",\n"
       << "  \"cases\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const CaseResult& r = results[i];
    json << "    {\"model\": \"" << r.model << "\", \"spins\": " << r.spins
         << ", \"hidden\": " << r.hidden << ", \"rows\": " << r.rows
         << ", \"flip_ms_per_call\": " << r.flip_ms
         << ", \"full_forward_ms_per_call\": " << r.full_ms
         << ", \"speedup_flip_over_full\": " << r.ratio
         << ", \"max_rel_disagreement\": " << r.max_rel_diff
         << ", \"parity_ok\": " << (r.parity_ok ? "true" : "false") << "}"
         << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"tim_diagonal\": {\"spins\": " << kGateSpins
       << ", \"rows\": " << kRows
       << ", \"batched_ms_per_call\": " << diagonal.batched_ms
       << ", \"row_loop_ms_per_call\": " << diagonal.row_loop_ms
       << ", \"speedup_batched_over_row_loop\": " << diagonal.ratio
       << ", \"bitwise_equal\": "
       << (diagonal.bitwise_equal ? "true" : "false") << "}"
       << ",\n  \"repeats\": [\n";
  for (std::size_t i = 0; i < repeat_results.size(); ++i) {
    const RepeatsResult& r = repeat_results[i];
    json << "    {\"model\": \"" << r.model << "\", \"spins\": " << kGateSpins
         << ", \"rows\": " << kRows << ", \"distinct\": " << r.distinct
         << ", \"batch_ms_per_call\": " << r.batch_ms
         << ", \"distinct_rows_ms_per_call\": " << r.distinct_ms
         << ", \"speedup_all_distinct_over_batch\": "
         << r.all_distinct_over_batch
         << ", \"batch_over_distinct_rows\": " << r.batch_over_distinct
         << ", \"bitwise_equal\": " << (r.bitwise_equal ? "true" : "false")
         << "}" << (i + 1 < repeat_results.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"repeats_gate_distinct\": " << kRepeatsGateDistinct
       << ",\n  \"repeats_gate_ratio\": " << kRepeatsGateRatio
       << ",\n  \"repeats_ok\": "
       << (repeats_bitwise && repeats_gate_ok ? "true" : "false")
       << ",\n  \"gate_spins\": " << kGateSpins
       << ",\n  \"flip_not_slower_at_gate\": " << (gate_ok ? "true" : "false")
       << ",\n  \"rbm_gate_speedup\": " << kRbmGateSpeedup
       << ",\n  \"rbm_flip_speedup_at_gate_ok\": "
       << (rbm_gate_ok ? "true" : "false")
       << ",\n  \"parity_ok\": " << (parity_ok ? "true" : "false") << "\n}\n";
  const std::string out_path = opts.get_string("out");
  std::ofstream(out_path) << json.str();
  std::cout << "\nwrote " << out_path << "\n";

  if (!parity_ok) {
    std::cerr << "FAIL: flip and full-forward paths disagree beyond "
              << kFlipRatioTolerance << "\n";
    return 1;
  }
  if (!gate_ok) {
    std::cerr << "FAIL: flip path slower than full-forward at n = "
              << kGateSpins << "\n";
    return 1;
  }
  if (!rbm_gate_ok) {
    std::cerr << "FAIL: RBM flip path less than " << kRbmGateSpeedup
              << "x the full-forward path at n = " << kGateSpins << "\n";
    return 1;
  }
  if (!diagonal.bitwise_equal) {
    std::cerr << "FAIL: TIM's batched diagonal differs from the row loop\n";
    return 1;
  }
  if (!repeats_bitwise) {
    std::cerr << "FAIL: a repeated row's local energy differs from its "
                 "distinct row's\n";
    return 1;
  }
  if (!repeats_gate_ok) {
    std::cerr << "FAIL: a batch of " << kRepeatsGateDistinct
              << " distinct configurations costs more than "
              << kRepeatsGateRatio << "x its distinct rows alone\n";
    return 1;
  }
  return 0;
}
