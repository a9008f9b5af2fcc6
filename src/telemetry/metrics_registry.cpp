#include "telemetry/metrics_registry.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/error.hpp"

namespace vqmc::telemetry {

int Histogram::bucket_index(double value) {
  if (!(value > 0)) return 0;
  const double octaves = std::log2(value) - double(kMinExponent);
  const int index = int(std::floor(octaves * kSubBuckets));
  return std::clamp(index, 0, kNumBuckets - 1);
}

double Histogram::bucket_lower_bound(int index) {
  return std::exp2(double(kMinExponent) + double(index) / kSubBuckets);
}

double Histogram::bucket_upper_bound(int index) {
  return std::exp2(double(kMinExponent) + double(index + 1) / kSubBuckets);
}

namespace {

/// Shared quantile walk over bucket counts (live histogram and snapshot use
/// the same estimator, so merged snapshots agree with live reads).
template <typename BucketAt>
double percentile_from_buckets(std::uint64_t count, double p,
                               BucketAt bucket_at) {
  if (count == 0) return 0;
  p = std::clamp(p, 0.0, 1.0);
  const double target = p * double(count);
  double cumulative = 0;
  for (int b = 0; b < Histogram::kNumBuckets; ++b) {
    const double in_bucket = double(bucket_at(b));
    if (in_bucket <= 0) continue;
    if (cumulative + in_bucket >= target) {
      const double fraction =
          std::clamp((target - cumulative) / in_bucket, 0.0, 1.0);
      const double lo = Histogram::bucket_lower_bound(b);
      const double hi = Histogram::bucket_upper_bound(b);
      return lo + (hi - lo) * fraction;
    }
    cumulative += in_bucket;
  }
  return Histogram::bucket_upper_bound(Histogram::kNumBuckets - 1);
}

void emit_json_escaped(std::ostringstream& oss, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': oss << "\\\""; break;
      case '\\': oss << "\\\\"; break;
      case '\n': oss << "\\n"; break;
      case '\r': oss << "\\r"; break;
      case '\t': oss << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          oss << buf;
        } else {
          oss << c;
        }
    }
  }
}

}  // namespace

double Histogram::percentile(double p) const {
  return percentile_from_buckets(count(), p,
                                 [this](int b) { return bucket(b); });
}

double HistogramSnapshot::percentile(double p) const {
  return percentile_from_buckets(
      count, p, [this](int b) { return buckets[std::size_t(b)]; });
}

void HistogramSnapshot::refresh_percentiles() {
  p50 = percentile(0.50);
  p95 = percentile(0.95);
  p99 = percentile(0.99);
}

std::vector<Real> MetricsSnapshot::pack_additive() const {
  std::vector<Real> payload;
  payload.reserve(counters.size() +
                  histograms.size() * (2 + Histogram::kNumBuckets));
  for (const CounterSnapshot& c : counters) payload.push_back(Real(c.value));
  for (const HistogramSnapshot& h : histograms) {
    payload.push_back(Real(h.count));
    payload.push_back(Real(h.sum));
    for (const std::uint64_t b : h.buckets) payload.push_back(Real(b));
  }
  return payload;
}

void MetricsSnapshot::apply_summed(const std::vector<Real>& payload) {
  const std::size_t expected =
      counters.size() + histograms.size() * (2 + Histogram::kNumBuckets);
  VQMC_REQUIRE(payload.size() == expected,
               "metrics merge: payload size mismatch (ranks created "
               "different instrument sets)");
  std::size_t pos = 0;
  for (CounterSnapshot& c : counters)
    c.value = std::uint64_t(std::llround(payload[pos++]));
  for (HistogramSnapshot& h : histograms) {
    h.count = std::uint64_t(std::llround(payload[pos++]));
    h.sum = double(payload[pos++]);
    for (std::uint64_t& b : h.buckets)
      b = std::uint64_t(std::llround(payload[pos++]));
    h.refresh_percentiles();
  }
}

std::vector<Real> MetricsSnapshot::pack_gauges() const {
  std::vector<Real> payload;
  payload.reserve(gauges.size());
  for (const GaugeSnapshot& g : gauges) payload.push_back(Real(g.value));
  return payload;
}

void MetricsSnapshot::apply_gauge_max(const std::vector<Real>& payload) {
  VQMC_REQUIRE(payload.size() == gauges.size(),
               "gauge merge: payload size mismatch (ranks created "
               "different gauge sets)");
  for (std::size_t i = 0; i < gauges.size(); ++i)
    gauges[i].value = double(payload[i]);
}

void MetricsSnapshot::merge_from(const MetricsSnapshot& other,
                                 GaugeMerge gauge_merge) {
  VQMC_REQUIRE(other.counters.size() == counters.size() &&
                   other.gauges.size() == gauges.size() &&
                   other.histograms.size() == histograms.size(),
               "metrics merge: snapshots hold different instrument sets");
  for (std::size_t i = 0; i < counters.size(); ++i) {
    VQMC_REQUIRE(counters[i].name == other.counters[i].name,
                 "metrics merge: counter name mismatch");
    counters[i].value += other.counters[i].value;
  }
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    VQMC_REQUIRE(gauges[i].name == other.gauges[i].name,
                 "metrics merge: gauge name mismatch");
    switch (gauge_merge) {
      case GaugeMerge::kLastWrite:
        gauges[i].value = other.gauges[i].value;
        break;
      case GaugeMerge::kMax:
        gauges[i].value = std::max(gauges[i].value, other.gauges[i].value);
        break;
    }
  }
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    HistogramSnapshot& h = histograms[i];
    const HistogramSnapshot& o = other.histograms[i];
    VQMC_REQUIRE(h.name == o.name && h.buckets.size() == o.buckets.size(),
                 "metrics merge: histogram mismatch");
    h.count += o.count;
    h.sum += o.sum;
    for (std::size_t b = 0; b < h.buckets.size(); ++b)
      h.buckets[b] += o.buckets[b];
    h.refresh_percentiles();
  }
}

const CounterSnapshot* MetricsSnapshot::find_counter(
    std::string_view name) const {
  for (const CounterSnapshot& c : counters)
    if (c.name == name) return &c;
  return nullptr;
}

const GaugeSnapshot* MetricsSnapshot::find_gauge(std::string_view name) const {
  for (const GaugeSnapshot& g : gauges)
    if (g.name == name) return &g;
  return nullptr;
}

const HistogramSnapshot* MetricsSnapshot::find_histogram(
    std::string_view name) const {
  for (const HistogramSnapshot& h : histograms)
    if (h.name == name) return &h;
  return nullptr;
}

std::string sanitize_label_value(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                    c == ':' || c == '-';
    out.push_back(ok ? c : '_');
  }
  return out;
}

std::string labeled_name(
    const std::string& base,
    const std::vector<std::pair<std::string, std::string>>& labels) {
  if (labels.empty()) return base;
  std::string out = base;
  out += '{';
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ',';
    first = false;
    out += key;
    out += "=\"";
    out += sanitize_label_value(value);
    out += '"';
  }
  out += '}';
  return out;
}

std::string MetricsSnapshot::to_json() const {
  std::ostringstream oss;
  oss.precision(17);
  oss << "{\"counters\": {";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    if (i) oss << ", ";
    oss << '"';
    emit_json_escaped(oss, counters[i].name);
    oss << "\": " << counters[i].value;
  }
  oss << "}, \"gauges\": {";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    if (i) oss << ", ";
    oss << '"';
    emit_json_escaped(oss, gauges[i].name);
    oss << "\": " << gauges[i].value;
  }
  oss << "}, \"histograms\": {";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const HistogramSnapshot& h = histograms[i];
    if (i) oss << ", ";
    oss << '"';
    emit_json_escaped(oss, h.name);
    oss << "\": {\"count\": " << h.count << ", \"sum\": " << h.sum
        << ", \"mean\": " << h.mean() << ", \"p50\": " << h.p50
        << ", \"p95\": " << h.p95 << ", \"p99\": " << h.p99 << "}";
  }
  oss << "}}";
  return oss.str();
}

namespace {

/// The instrument named `name` in `map`, created on first lookup: find
/// first, so an existing name is looked up without building a key.
template <typename Instrument>
Instrument& find_or_create(
    std::map<std::string, std::unique_ptr<Instrument>, std::less<>>& map,
    std::string_view name) {
  auto it = map.find(name);
  if (it == map.end())
    it = map.emplace(std::string(name), std::make_unique<Instrument>()).first;
  return *it->second;
}

}  // namespace

Counter& MetricsRegistry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return find_or_create(counters_, name);
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return find_or_create(gauges_, name);
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return find_or_create(histograms_, name);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_)
    snap.counters.push_back({name, c->value()});
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_)
    snap.gauges.push_back({name, g->value()});
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.name = name;
    hs.count = h->count();
    hs.sum = h->sum();
    hs.buckets.resize(std::size_t(Histogram::kNumBuckets));
    for (int b = 0; b < Histogram::kNumBuckets; ++b)
      hs.buckets[std::size_t(b)] = h->bucket(b);
    hs.refresh_percentiles();
    snap.histograms.push_back(std::move(hs));
  }
  return snap;
}

void MetricsRegistry::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

namespace {
thread_local MetricsRegistry* t_current_registry = nullptr;
}  // namespace

MetricsRegistry& metrics() {
  return t_current_registry != nullptr ? *t_current_registry
                                       : MetricsRegistry::global();
}

ScopedMetricsRegistry::ScopedMetricsRegistry(MetricsRegistry& registry)
    : previous_(t_current_registry) {
  t_current_registry = &registry;
}

ScopedMetricsRegistry::~ScopedMetricsRegistry() {
  t_current_registry = previous_;
}

}  // namespace vqmc::telemetry
