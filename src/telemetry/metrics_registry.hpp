#pragma once

/// \file metrics_registry.hpp
/// \brief Lock-cheap registry of named counters, gauges and log-scale
/// latency histograms (DESIGN.md §5d).
///
/// Instruments are created on first lookup and live as long as their
/// registry; updates are single relaxed atomics (plus one master-switch
/// load), so the hot path never blocks.  The registry itself takes a mutex
/// only around name lookup/creation — call sites on per-batch (not
/// per-sample) granularity, so the map find is noise — and a lookup by
/// std::string_view of an existing name allocates nothing.
///
/// Per-rank scoping: `metrics()` resolves to a thread-local current registry
/// that defaults to the process-global one.  A distributed rank thread
/// installs its own registry with ScopedMetricsRegistry, so instrument names
/// never need rank prefixes and merging across ranks is one allreduce over
/// the packed additive state (`MetricsSnapshot::pack_additive`).
///
/// Histograms are log-scale (4 sub-buckets per factor of two, spanning
/// ~1 ns to ~3 days when values are seconds), so p50/p95/p99 come back with
/// relative error bounded by the bucket width, 2^(1/4) - 1 ~ 19%, at
/// 192 * 8 bytes per histogram.

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "telemetry/telemetry.hpp"
#include "tensor/real.hpp"

namespace vqmc::telemetry {

/// Monotone event counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    if (enabled()) value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-value-wins instantaneous measurement.
class Gauge {
 public:
  void set(double v) {
    if (enabled()) value_.store(v, std::memory_order_relaxed);
  }
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0};
};

/// Log-scale histogram with quantile estimation.
///
/// Bucket b covers [2^(kMinExponent + b/kSubBuckets),
/// 2^(kMinExponent + (b+1)/kSubBuckets)); values at or below zero and
/// underflows land in bucket 0, overflows in the last bucket.
class Histogram {
 public:
  static constexpr int kSubBuckets = 4;     ///< buckets per factor of two
  static constexpr int kMinExponent = -30;  ///< 2^-30 s ~ 0.93 ns
  static constexpr int kNumBuckets = 192;   ///< 48 octaves ~ up to 2.6e5 s

  void observe(double value) {
    if (!enabled()) return;
    buckets_[std::size_t(bucket_index(value))].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bucket(int index) const {
    return buckets_[std::size_t(index)].load(std::memory_order_relaxed);
  }

  /// Quantile estimate for p in [0, 1] (0 when empty). Linear interpolation
  /// inside the winning bucket bounds the relative error by the bucket
  /// width (2^(1/4) - 1 ~ 19%).
  [[nodiscard]] double percentile(double p) const;

  [[nodiscard]] static int bucket_index(double value);
  [[nodiscard]] static double bucket_lower_bound(int index);
  [[nodiscard]] static double bucket_upper_bound(int index);

 private:
  std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0};
};

/// Build a labeled metric name: `base{key="value",...}`.  The label body
/// is carried inside the registry name (names stay single tokens for the
/// status-report wire encoding); the Prometheus renderer in vqmc::obs
/// splits it back out and merges it with the `rank` label, so per-tenant /
/// per-model serve series land in one labeled family instead of one
/// family per tenant.  Values are sanitized to `[A-Za-z0-9_.:-]` (quotes,
/// commas and braces can never corrupt the label grammar); keys are
/// caller-controlled literals and used verbatim.
[[nodiscard]] std::string labeled_name(
    const std::string& base,
    const std::vector<std::pair<std::string, std::string>>& labels);

/// The value-sanitization rule of labeled_name, exposed for callers that
/// need the cleaned label value itself (e.g. to echo it in a report).
[[nodiscard]] std::string sanitize_label_value(const std::string& value);

struct CounterSnapshot {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSnapshot {
  std::string name;
  double value = 0;
};

struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  double sum = 0;
  std::vector<std::uint64_t> buckets;  ///< length Histogram::kNumBuckets
  double p50 = 0, p95 = 0, p99 = 0;

  [[nodiscard]] double mean() const {
    return count == 0 ? 0 : sum / double(count);
  }
  /// Recompute a quantile from the (possibly merged) bucket counts.
  [[nodiscard]] double percentile(double p) const;
  /// Refresh p50/p95/p99 from the bucket counts (after a merge).
  void refresh_percentiles();
};

/// How gauges combine across ranks. Counters and histograms are additive;
/// gauges are instantaneous readings where a sum is meaningless (summing
/// `serve.queue_depth` over ranks invents load nobody measured).
enum class GaugeMerge {
  kLastWrite,  ///< keep the other snapshot's value (most recent observation)
  kMax,        ///< keep the elementwise maximum (high-water semantics)
};

/// Point-in-time copy of one registry, additive across ranks.
struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;      ///< sorted by name
  std::vector<GaugeSnapshot> gauges;          ///< sorted by name
  std::vector<HistogramSnapshot> histograms;  ///< sorted by name

  /// Flatten the additive state (counter values; histogram count, sum and
  /// buckets — gauges are per-rank and excluded) into a Real vector whose
  /// layout is a pure function of the instrument names.  Ranks that created
  /// the same instruments (they run the same code) produce layout-identical
  /// payloads, so an allreduce_sum over the payload *is* the cross-rank
  /// merge.  Counts are exact in a double up to 2^53.
  [[nodiscard]] std::vector<Real> pack_additive() const;

  /// Replace the additive state with a summed payload (inverse of
  /// pack_additive after the allreduce) and refresh the percentiles.
  void apply_summed(const std::vector<Real>& payload);

  /// Gauge values in name order (the gauge analogue of pack_additive).
  /// Layout-identical across ranks that created the same instruments, so an
  /// allreduce_max over the payload is a cross-rank kMax gauge merge.
  [[nodiscard]] std::vector<Real> pack_gauges() const;

  /// Replace gauge values with an allreduce_max'd pack_gauges payload.
  void apply_gauge_max(const std::vector<Real>& payload);

  /// In-process cross-snapshot merge: counters and histogram state add,
  /// gauges combine per `gauge_merge`. Both snapshots must hold the same
  /// instrument sets (ranks run the same code). Refreshes percentiles.
  void merge_from(const MetricsSnapshot& other, GaugeMerge gauge_merge);

  [[nodiscard]] const CounterSnapshot* find_counter(
      std::string_view name) const;
  [[nodiscard]] const GaugeSnapshot* find_gauge(std::string_view name) const;
  [[nodiscard]] const HistogramSnapshot* find_histogram(
      std::string_view name) const;

  /// Human/machine-readable dump: {"counters": {...}, "gauges": {...},
  /// "histograms": {name: {count, sum, mean, p50, p95, p99}}}.
  [[nodiscard]] std::string to_json() const;
};

/// Named-instrument registry. Instruments are stable references: once
/// returned, a Counter&/Gauge&/Histogram& stays valid for the registry's
/// lifetime.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The named instrument, created on first lookup.  Lookup is
  /// transparent: finding an existing instrument builds no std::string, so
  /// it allocates nothing whatever the name's length.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Drop every instrument (references obtained earlier become dangling;
  /// intended for test isolation, not steady-state use).
  void clear();

  /// The process-global registry (serial trainers, benches, CLI tools).
  static MetricsRegistry& global();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// The calling thread's current registry (global() unless a
/// ScopedMetricsRegistry is installed).
[[nodiscard]] MetricsRegistry& metrics();

/// RAII: route this thread's `metrics()` to `registry` (per-rank scoping in
/// train_distributed).
class ScopedMetricsRegistry {
 public:
  explicit ScopedMetricsRegistry(MetricsRegistry& registry);
  ~ScopedMetricsRegistry();
  ScopedMetricsRegistry(const ScopedMetricsRegistry&) = delete;
  ScopedMetricsRegistry& operator=(const ScopedMetricsRegistry&) = delete;

 private:
  MetricsRegistry* previous_;
};

}  // namespace vqmc::telemetry
