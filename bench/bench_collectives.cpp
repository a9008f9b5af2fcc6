/// \file bench_collectives.cpp
/// \brief The collective data path in one run: the frame checksum against
/// the FNV-1a hash it replaced, and socket-group allreduce_sum at the
/// paper's parameter counts (DESIGN.md §5h).
///
/// Checksum section: fnv1a64, crc32c at the active SIMD level and the
/// table-driven ref::crc32c over buffers of one gradient frame of each
/// size below.  The three are timed in alternating blocks and the reported
/// speedup is the median of the paired ratios fnv1a64 / crc32c, so
/// host-speed drift cancels.
///
/// Allreduce section: a thread-hosted flat-star socket group
/// (run_socket_group, the real wire protocol over Unix sockets) runs
/// allreduce_sum of d reals per rank, one collective at a time.  Rank 0
/// times each call; the artifact gives the median and quartiles.  Every
/// result is checked on every rank against the rank arithmetic (the
/// inputs are exactly representable, so the sum is exact).  The section
/// calls nothing but run_socket_group and allreduce_sum.
///
/// Writes BENCH_collectives.json; exits nonzero when crc32c differs from
/// ref::crc32c, when it is not faster than fnv1a64 at the dist4_chain
/// frame size (243,632 bytes), or when any allreduce result differs from
/// the rank arithmetic.
///
///   ./build/bench/bench_collectives --commit $(git rev-parse --short HEAD)

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
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
#include "core/checkpoint.hpp"
#include "parallel/socket_communicator.hpp"
#include "tensor/kernels.hpp"
#include "tensor/kernels_ref.hpp"
#include "tensor/simd.hpp"

using namespace vqmc;
using bench::median;
using bench::provenance_json;

namespace {

/// MADE parameter counts: n = 128 (dist4_chain), n = 1000 and n = 10^4.
constexpr std::size_t kDims[] = {30'454, 479'239, 8'490'424};
/// The checksum gate's size: one dist4_chain gradient frame.
constexpr std::size_t kGateBytes = 30'454 * sizeof(Real);

struct AllreduceCase {
  int ranks;
  std::size_t dim;
};
constexpr AllreduceCase kAllreduceCases[] = {
    {2, 30'454}, {2, 479'239}, {4, 30'454}, {4, 479'239}, {4, 8'490'424}};
/// Most timed allreduce calls per case.
constexpr int kMaxAllreduceCalls = 200;

double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return v[std::size_t(q * double(v.size() - 1) + 0.5)];
}

// ---------------------------------------------------------------------------
// Checksum section.
// ---------------------------------------------------------------------------

struct ChecksumResult {
  std::size_t bytes = 0;
  double fnv_gbps = 0;
  double crc_gbps = 0;
  double ref_gbps = 0;
  double speedup = 0;  ///< median of paired fnv1a64 / crc32c block times
  bool crc_matches_ref = false;
};

/// Seconds per call of `fn` over one block of `calls`.
double block_seconds(const std::function<void()>& fn, std::size_t calls) {
  Timer timer;
  for (std::size_t c = 0; c < calls; ++c) fn();
  return timer.seconds() / double(calls);
}

ChecksumResult run_checksum(std::size_t bytes, double seconds, int repeats) {
  std::vector<unsigned char> buffer(bytes);
  for (std::size_t i = 0; i < bytes; ++i)
    buffer[i] = static_cast<unsigned char>(i * 131 + (i >> 9));
  // Each call chains on the previous result, so no call can be skipped.
  std::uint64_t fnv_chain = 0;
  std::uint32_t crc_chain = 0, ref_chain = 0;
  const auto fnv = [&] {
    fnv_chain = fnv1a64(buffer.data(), bytes) ^ (fnv_chain >> 1);
  };
  const auto crc = [&] { crc_chain = crc32c(crc_chain, buffer.data(), bytes); };
  const auto ref = [&] {
    ref_chain = ref::crc32c(ref_chain, buffer.data(), bytes);
  };
  // Calibrate calls per block off FNV-1a, the gate's baseline (the byte-at-
  // a-time ref::crc32c blocks run about twice as long).
  const double probe = std::max(block_seconds(fnv, 1), 1e-7);
  const std::size_t calls =
      std::max<std::size_t>(2, std::size_t(seconds / probe));
  std::vector<double> fnv_s, crc_s, ref_s, ratios;
  for (int rep = 0; rep < repeats; ++rep) {
    fnv_s.push_back(block_seconds(fnv, calls));
    crc_s.push_back(block_seconds(crc, calls));
    ref_s.push_back(block_seconds(ref, calls));
    ratios.push_back(fnv_s.back() / crc_s.back());
  }
  ChecksumResult r;
  r.crc_matches_ref = crc_chain == ref_chain;
  r.bytes = bytes;
  r.fnv_gbps = double(bytes) / median(fnv_s) * 1e-9;
  r.crc_gbps = double(bytes) / median(crc_s) * 1e-9;
  r.ref_gbps = double(bytes) / median(ref_s) * 1e-9;
  r.speedup = median(ratios);
  return r;
}

// ---------------------------------------------------------------------------
// Allreduce section: run_socket_group and allreduce_sum only.
// ---------------------------------------------------------------------------

struct AllreduceResult {
  int ranks = 0;
  std::size_t dim = 0;
  std::size_t calls = 0;
  double p25_ms = 0, median_ms = 0, p75_ms = 0;
  long long mismatches = 0;  ///< elements off the rank arithmetic, all ranks
};

/// Rank r's element i: exactly representable, and so are all partial sums.
Real rank_value(int rank, std::size_t i) {
  return Real(rank + 1) * Real(i % 7 + 1) * 0.5;
}

AllreduceResult run_allreduce(int ranks, std::size_t dim, double seconds) {
  std::vector<double> times_ms;  // rank 0's
  std::vector<long long> mismatches(std::size_t(ranks), 0);
  const Real rank_sum = Real(ranks) * Real(ranks + 1) / 2;
  parallel::run_socket_group(ranks, [&](parallel::Communicator& comm) {
    const int rank = comm.rank();
    std::vector<Real> data(dim);
    const auto fill = [&] {
      for (std::size_t i = 0; i < dim; ++i) data[i] = rank_value(rank, i);
    };
    const auto check = [&] {
      for (std::size_t i = 0; i < dim; ++i)
        if (data[i] != rank_sum * Real(i % 7 + 1) * 0.5)
          ++mismatches[std::size_t(rank)];
    };
    // Warm-up (first-touch of every buffer), then agree on the call count
    // from rank 0's second call.
    fill();
    comm.allreduce_sum(data);
    check();
    fill();
    Timer warm;
    comm.allreduce_sum(data);
    const double warm_s = warm.seconds();
    check();
    Real calls = 0;
    if (rank == 0)
      calls = Real(std::clamp(int(seconds / std::max(warm_s, 1e-6)), 3,
                              kMaxAllreduceCalls));
    calls = comm.allreduce_sum(calls);
    for (int c = 0; c < int(calls); ++c) {
      fill();
      Real sync = 0;
      sync = comm.allreduce_sum(sync);  // start the timed call together
      Timer timer;
      comm.allreduce_sum(data);
      if (rank == 0) times_ms.push_back(timer.milliseconds());
      check();
    }
  });
  AllreduceResult r;
  r.ranks = ranks;
  r.dim = dim;
  r.calls = times_ms.size();
  r.p25_ms = quantile(times_ms, 0.25);
  r.median_ms = median(times_ms);
  r.p75_ms = quantile(times_ms, 0.75);
  for (const long long m : mismatches) r.mismatches += m;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  OptionParser opts("bench_collectives",
                    "frame checksum (crc32c vs fnv1a64) and socket-group "
                    "allreduce_sum; writes BENCH_collectives.json");
  opts.add_option("repeats", "5", "checksum blocks per function (median)");
  opts.add_option("seconds", "0.2",
                  "target time per checksum block and per allreduce case");
  opts.add_option("max-dim", "8490424",
                  "skip allreduce cases with more reals than this");
  opts.add_option("commit", "unknown", "commit id recorded in the artifact");
  opts.add_option("out", "BENCH_collectives.json", "JSON artifact path");
  if (!opts.parse(argc, argv)) return 0;

  const int repeats = opts.get_int("repeats");
  const double seconds = opts.get_double("seconds");
  const auto max_dim = std::size_t(opts.get_int("max-dim"));
  const char* simd_level = simd::level_name(simd::active_level());
#ifdef _OPENMP
  const int threads = omp_get_max_threads();
#else
  const int threads = 1;
#endif
  std::cout << "collectives: checksum throughput and socket allreduce_sum, "
            << threads << " thread(s), simd level " << simd_level << "\n\n";

  std::vector<ChecksumResult> checksums;
  for (const std::size_t dim : kDims)
    checksums.push_back(run_checksum(dim * sizeof(Real), seconds, repeats));
  Table checksum_table("Frame checksum throughput (GB/s)");
  checksum_table.set_header(
      {"bytes", "fnv1a64", "crc32c", "ref::crc32c", "crc32c/fnv1a64"});
  bool gate_ok = true;
  bool parity_ok = true;
  for (const ChecksumResult& r : checksums) {
    checksum_table.add_row(
        {std::to_string(r.bytes), format_fixed(r.fnv_gbps, 2),
         format_fixed(r.crc_gbps, 2), format_fixed(r.ref_gbps, 2),
         format_fixed(r.speedup, 2)});
    if (r.bytes == kGateBytes) gate_ok &= r.speedup > 1.0;
    parity_ok &= r.crc_matches_ref;
  }
  std::cout << checksum_table.to_string() << "\n";

  std::vector<AllreduceResult> allreduces;
  for (const AllreduceCase& c : kAllreduceCases)
    if (c.dim <= max_dim)
      allreduces.push_back(run_allreduce(c.ranks, c.dim, seconds));
  Table allreduce_table("Socket allreduce_sum, flat star (ms per call)");
  allreduce_table.set_header(
      {"ranks", "d", "calls", "p25", "median", "p75", "mismatches"});
  long long mismatches = 0;
  for (const AllreduceResult& r : allreduces) {
    allreduce_table.add_row(
        {std::to_string(r.ranks), std::to_string(r.dim),
         std::to_string(r.calls), format_fixed(r.p25_ms, 3),
         format_fixed(r.median_ms, 3), format_fixed(r.p75_ms, 3),
         std::to_string(r.mismatches)});
    mismatches += r.mismatches;
  }
  std::cout << allreduce_table.to_string();

  std::ostringstream json;
  json << "{\n  \"bench\": \"collectives\",\n"
       << provenance_json(opts.get_string("commit"))
       << "  \"checksum\": [\n";
  for (std::size_t i = 0; i < checksums.size(); ++i) {
    const ChecksumResult& r = checksums[i];
    json << "    {\"bytes\": " << r.bytes << ", \"fnv1a64_gb_per_s\": "
         << r.fnv_gbps << ", \"crc32c_gb_per_s\": " << r.crc_gbps
         << ", \"ref_crc32c_gb_per_s\": " << r.ref_gbps
         << ", \"speedup_crc32c_over_fnv1a64\": " << r.speedup
         << ", \"crc32c_matches_ref\": "
         << (r.crc_matches_ref ? "true" : "false") << "}"
         << (i + 1 < checksums.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"allreduce_sum\": [\n";
  for (std::size_t i = 0; i < allreduces.size(); ++i) {
    const AllreduceResult& r = allreduces[i];
    json << "    {\"ranks\": " << r.ranks << ", \"dim\": " << r.dim
         << ", \"payload_bytes\": " << r.dim * sizeof(Real)
         << ", \"calls\": " << r.calls << ", \"p25_ms\": " << r.p25_ms
         << ", \"median_ms\": " << r.median_ms << ", \"p75_ms\": " << r.p75_ms
         << ", \"mismatches\": " << r.mismatches << "}"
         << (i + 1 < allreduces.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"gate_bytes\": " << kGateBytes
       << ",\n  \"crc32c_faster_at_gate\": " << (gate_ok ? "true" : "false")
       << ",\n  \"crc32c_matches_ref\": " << (parity_ok ? "true" : "false")
       << ",\n  \"allreduce_exact\": " << (mismatches == 0 ? "true" : "false")
       << "\n}\n";
  const std::string out_path = opts.get_string("out");
  std::ofstream(out_path) << json.str();
  std::cout << "\nwrote " << out_path << "\n";

  if (!parity_ok) {
    std::cerr << "FAIL: crc32c differs from ref::crc32c\n";
    return 1;
  }
  if (!gate_ok) {
    std::cerr << "FAIL: crc32c not faster than fnv1a64 at " << kGateBytes
              << " bytes\n";
    return 1;
  }
  if (mismatches != 0) {
    std::cerr << "FAIL: " << mismatches
              << " allreduce elements differ from the rank arithmetic\n";
    return 1;
  }
  return 0;
}
