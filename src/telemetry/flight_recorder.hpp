#pragma once

/// \file flight_recorder.hpp
/// \brief Always-on ring of recent iteration summaries with crash-dump
/// export (DESIGN.md §5i).
///
/// Post-mortem telemetry (CSV/JSON/Chrome-trace at exit) is useless when a
/// run dies mid-flight: a SIGKILL'd neighbor, a hung allreduce aborting the
/// group, or an SR breakdown under GuardPolicy::Throw all unwind before any
/// sink is written.  The flight recorder keeps the last `capacity` iteration
/// summaries — energy, guard trips, phase timings, live ranks — in a
/// fixed-size, preallocated ring, and dumps them as a timestamped JSONL
/// *crash report* when the process aborts:
///
///  * explicitly, from a CLI's catch block (`dump_crash_report(reason)`),
///    which covers uncaught vqmc::Error and CommTimeoutError aborts;
///  * from a fatal-signal handler (`install_crash_signal_handler()`:
///    SIGSEGV/SIGABRT/SIGFPE/SIGILL/SIGBUS/SIGTERM), which writes the report
///    with async-signal-safe I/O and then re-raises the signal.
///
/// Crash-report schema (one JSON object per line):
///   {"event":"crash_report","reason":...,"rank":...,"pid":...,
///    "unix_time":...,"recorded":N,"entries":K,"signal":S}
///   {"event":"iteration","iteration":...,"rank":...,"energy":...,
///    "guard_trips":...,"<name>_seconds":... for every kPhases row
///    (common/phases.hpp, in table order),"live_ranks":...,
///    "wall_us":...}   (oldest first)
///
/// Overhead discipline matches the rest of the subsystem: `record()` is a
/// no-op when telemetry is disabled (compile-out makes it dead code), the
/// ring is allocated once at configure/first record and never grows, and no
/// thread is started — dumping is driven by the crashing thread itself.

#include <cstdint>
#include <string>
#include <vector>

#include "common/phases.hpp"
#include "telemetry/telemetry.hpp"

namespace vqmc::telemetry {

/// One iteration summary in the flight-recorder ring (plain data: the
/// signal-path dump reads entries without taking locks).
struct FlightRecord {
  std::int64_t iteration = -1;
  int rank = 0;
  int live_ranks = 0;
  double wall_us = 0;  ///< telemetry::now_us() at record time
  double energy = 0;
  std::uint64_t guard_trips = 0;  ///< cumulative at record time
  PhaseBreakdown phases;
};

/// Process-global drop-oldest ring of FlightRecords.
///
/// Thread-safe: any thread may record or snapshot.  In a thread-backed
/// distributed run every rank records into the same ring with its own rank
/// attribution; per-rank views filter on `FlightRecord::rank`.
class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 256;

  static FlightRecorder& instance();

  /// Resize the ring to `capacity` entries and drop recorded history. The
  /// single allocation happens here (or lazily at the first record), never
  /// on the record path.
  void configure(std::size_t capacity);

  /// Append one summary (drop-oldest beyond capacity). No-op while
  /// telemetry is disabled; never allocates after the ring exists.
  void record(const FlightRecord& entry);

  /// Ring contents, oldest first. `rank` >= 0 filters to that rank.
  [[nodiscard]] std::vector<FlightRecord> snapshot(int rank = -1) const;

  /// The most recent entry (for `rank` when >= 0). False when empty.
  [[nodiscard]] bool latest(FlightRecord& out, int rank = -1) const;

  /// Total records accepted since configure/clear (drops included).
  [[nodiscard]] std::uint64_t recorded() const;

  /// Iterations per second over the ring's recent entries for `rank`
  /// (-1 = any rank): (last.iteration - first.iteration) / elapsed over the
  /// newest `window` matching entries. 0 when fewer than two entries.
  [[nodiscard]] double iteration_rate(int rank = -1,
                                      std::size_t window = 32) const;

  /// Drop all entries (capacity is kept).
  void clear();

  /// Directory crash reports are written to; empty (the default) disables
  /// dumping — the recorder stays inert unless a CLI opts in.
  void set_crash_dir(const std::string& dir);
  [[nodiscard]] std::string crash_dir() const;

  /// Write a crash report named
  /// `<crash_dir>/vqmc_crash.rank<R>.pid<P>.<unix_time>.jsonl` holding the
  /// current ring, and return its path. Returns "" (and writes nothing)
  /// when no crash dir is configured or the ring is empty. `rank` tags the
  /// report header (-1 = use the last recorded entry's rank).
  std::string dump_crash_report(const std::string& reason, int rank = -1);

  /// Install process-wide fatal-signal handlers (SIGSEGV, SIGABRT, SIGFPE,
  /// SIGILL, SIGBUS, SIGTERM) that dump a crash report with
  /// async-signal-safe I/O and re-raise with the default disposition.
  /// Idempotent; a no-op until a crash dir is configured.
  static void install_crash_signal_handler();

 private:
  FlightRecorder() = default;
  struct Impl;
};

}  // namespace vqmc::telemetry
