#include "telemetry/metrics_registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "support/alloc_count.hpp"
#include "support/mini_json.hpp"
#include "support/telemetry_gate.hpp"

namespace vqmc::telemetry {
namespace {

// The log-scale buckets (4 per octave) bound the relative quantile error by
// the bucket width, 2^(1/4) - 1 ~ 18.9% worst case (a point mass at a
// bucket's lower edge interpolates toward its upper edge). Tests assert 20%.
constexpr double kQuantileTolerance = 0.20;

TEST(Counter, AddsAndResets) {
  VQMC_SKIP_WITHOUT_TELEMETRY();
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, LastValueWins) {
  VQMC_SKIP_WITHOUT_TELEMETRY();
  Gauge g;
  g.set(1.5);
  g.set(-2.25);
  EXPECT_DOUBLE_EQ(g.value(), -2.25);
}

TEST(Histogram, BucketBoundsContainTheirValues) {
  for (const double v : {1e-9, 1e-6, 1e-3, 0.5, 1.0, 3.0, 1e3}) {
    const int b = Histogram::bucket_index(v);
    ASSERT_GE(b, 0);
    ASSERT_LT(b, Histogram::kNumBuckets);
    if (b > 0) EXPECT_GE(v, Histogram::bucket_lower_bound(b));
    if (b < Histogram::kNumBuckets - 1)
      EXPECT_LT(v, Histogram::bucket_upper_bound(b));
  }
}

TEST(Histogram, ExtremeValuesClampToEdgeBuckets) {
  EXPECT_EQ(Histogram::bucket_index(0.0), 0);
  EXPECT_EQ(Histogram::bucket_index(-5.0), 0);
  EXPECT_EQ(Histogram::bucket_index(1e300), Histogram::kNumBuckets - 1);
}

TEST(Histogram, PercentilesOfUniformDistribution) {
  VQMC_SKIP_WITHOUT_TELEMETRY();
  Histogram h;
  // 1..1000 ms uniformly: p50 ~ 0.5 s, p95 ~ 0.95 s, p99 ~ 0.99 s.
  for (int i = 1; i <= 1000; ++i) h.observe(double(i) * 1e-3);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_NEAR(h.sum(), 500.5, 1e-9);
  EXPECT_NEAR(h.percentile(0.50), 0.50, 0.50 * kQuantileTolerance);
  EXPECT_NEAR(h.percentile(0.95), 0.95, 0.95 * kQuantileTolerance);
  EXPECT_NEAR(h.percentile(0.99), 0.99, 0.99 * kQuantileTolerance);
}

TEST(Histogram, PercentilesOfBimodalDistribution) {
  VQMC_SKIP_WITHOUT_TELEMETRY();
  Histogram h;
  // 90 fast (1 ms) + 10 slow (1 s): p50 in the fast mode, p95/p99 slow.
  for (int i = 0; i < 90; ++i) h.observe(1e-3);
  for (int i = 0; i < 10; ++i) h.observe(1.0);
  EXPECT_NEAR(h.percentile(0.50), 1e-3, 1e-3 * kQuantileTolerance);
  EXPECT_NEAR(h.percentile(0.95), 1.0, 1.0 * kQuantileTolerance);
  EXPECT_NEAR(h.percentile(0.99), 1.0, 1.0 * kQuantileTolerance);
}

TEST(Histogram, EmptyPercentileIsZero) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
}

TEST(MetricsRegistry, InstrumentsAreStableAndNamed) {
  VQMC_SKIP_WITHOUT_TELEMETRY();
  MetricsRegistry registry;
  Counter& a = registry.counter("x");
  Counter& b = registry.counter("x");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(registry.counter("x").value(), 3u);
  registry.gauge("g").set(1.0);
  registry.histogram("h").observe(0.5);

  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.counters[0].name, "x");
  EXPECT_EQ(snap.counters[0].value, 3u);
  EXPECT_EQ(snap.histograms[0].count, 1u);
}

TEST(MetricsRegistry, LookingUpAnExistingLongNameAllocatesNothing) {
  // Names past the small-string buffer (the samplers' and the socket
  // communicator's) are found by string_view: the first lookup creates the
  // instrument, every later one returns it without building a key.
  MetricsRegistry registry;
  const std::string_view name = "sampler.auto.forward_passes.long_name";
  Counter& counter = registry.counter(name);
  Gauge& gauge = registry.gauge(name);
  Histogram& histogram = registry.histogram(name);
  const std::uint64_t before = vqmc::testing::allocation_count();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(&registry.counter(name), &counter);
    EXPECT_EQ(&registry.gauge(std::string_view(name)), &gauge);
    EXPECT_EQ(&registry.histogram(name.data()), &histogram);
  }
  EXPECT_EQ(vqmc::testing::allocation_count(), before);
  EXPECT_EQ(registry.snapshot().counters.size(), 1u);
}

TEST(MetricsRegistry, SnapshotIsSortedByName) {
  MetricsRegistry registry;
  registry.counter("zeta");
  registry.counter("alpha");
  registry.counter("mid");
  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].name, "alpha");
  EXPECT_EQ(snap.counters[1].name, "mid");
  EXPECT_EQ(snap.counters[2].name, "zeta");
}

TEST(MetricsRegistry, ConcurrentCounterUpdatesAreExact) {
  VQMC_SKIP_WITHOUT_TELEMETRY();
  MetricsRegistry registry;
  Counter& c = registry.counter("hits");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&registry] {
      for (int i = 0; i < kPerThread; ++i) registry.counter("hits").add();
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), std::uint64_t(kThreads) * kPerThread);
}

TEST(MetricsSnapshot, PackApplySummedMergesTwoRanks) {
  VQMC_SKIP_WITHOUT_TELEMETRY();
  // Two "ranks" with identical instrument sets, different values — the
  // distributed merge is an element-wise sum of the packed payloads.
  MetricsRegistry rank0;
  MetricsRegistry rank1;
  for (MetricsRegistry* r : {&rank0, &rank1}) {
    r->counter("iters");
    r->histogram("wait");
  }
  rank0.counter("iters").add(10);
  rank1.counter("iters").add(10);
  for (int i = 0; i < 100; ++i) rank0.histogram("wait").observe(1e-3);
  for (int i = 0; i < 100; ++i) rank1.histogram("wait").observe(1.0);

  MetricsSnapshot merged = rank0.snapshot();
  std::vector<Real> payload = merged.pack_additive();
  const std::vector<Real> other = rank1.snapshot().pack_additive();
  ASSERT_EQ(payload.size(), other.size());
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] += other[i];
  merged.apply_summed(payload);

  const CounterSnapshot* iters = merged.find_counter("iters");
  ASSERT_NE(iters, nullptr);
  EXPECT_EQ(iters->value, 20u);
  const HistogramSnapshot* wait = merged.find_histogram("wait");
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->count, 200u);
  EXPECT_NEAR(wait->sum, 100.1, 1e-9);
  // Merged percentiles see both modes: p50 fast, p95 slow.
  EXPECT_NEAR(wait->p50, 1e-3, 1e-3 * kQuantileTolerance);
  EXPECT_NEAR(wait->p95, 1.0, 1.0 * kQuantileTolerance);
}

TEST(MetricsSnapshot, AdditivePayloadExcludesGauges) {
  VQMC_SKIP_WITHOUT_TELEMETRY();
  // Regression: gauges are point-in-time values, not additive tallies. The
  // old cross-rank merge summed them through pack_additive, so a 4-rank
  // group reported trainer.iteration = 4 * iter. They must stay out of the
  // additive payload entirely.
  MetricsRegistry registry;
  registry.counter("c").add(1);
  registry.gauge("trainer.iteration").set(500);
  registry.histogram("h").observe(0.5);
  MetricsSnapshot snap = registry.snapshot();
  const std::vector<Real> additive = snap.pack_additive();
  std::vector<Real> doubled = additive;
  for (Real& v : doubled) v += v;
  snap.apply_summed(doubled);
  const GaugeSnapshot* g = snap.find_gauge("trainer.iteration");
  ASSERT_NE(g, nullptr);
  EXPECT_DOUBLE_EQ(g->value, 500.0);  // untouched by the additive merge
  EXPECT_EQ(snap.find_counter("c")->value, 2u);
}

TEST(MetricsSnapshot, PackApplyGaugeMaxMergesCrossRank) {
  VQMC_SKIP_WITHOUT_TELEMETRY();
  // The distributed gauge merge: element-wise max over the packed gauge
  // vectors (a trailing allreduce_max in train_distributed).
  MetricsRegistry rank0;
  MetricsRegistry rank1;
  for (MetricsRegistry* r : {&rank0, &rank1}) {
    r->gauge("comm.live_ranks");
    r->gauge("trainer.iteration");
  }
  rank0.gauge("trainer.iteration").set(41);
  rank1.gauge("trainer.iteration").set(42);  // straggler-free rank is ahead
  rank0.gauge("comm.live_ranks").set(4);
  rank1.gauge("comm.live_ranks").set(3);

  MetricsSnapshot merged = rank0.snapshot();
  std::vector<Real> payload = merged.pack_gauges();
  const std::vector<Real> other = rank1.snapshot().pack_gauges();
  ASSERT_EQ(payload.size(), 2u);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = std::max(payload[i], other[i]);
  merged.apply_gauge_max(payload);

  EXPECT_DOUBLE_EQ(merged.find_gauge("trainer.iteration")->value, 42.0);
  EXPECT_DOUBLE_EQ(merged.find_gauge("comm.live_ranks")->value, 4.0);
}

TEST(MetricsSnapshot, ApplyGaugeMaxRejectsMismatchedPayload) {
  MetricsRegistry registry;
  registry.gauge("g");
  MetricsSnapshot snap = registry.snapshot();
  EXPECT_THROW(snap.apply_gauge_max(std::vector<Real>(2, Real(0))), Error);
}

TEST(MetricsSnapshot, MergeFromHonorsTheGaugeMergePolicy) {
  VQMC_SKIP_WITHOUT_TELEMETRY();
  MetricsRegistry mine;
  MetricsRegistry theirs;
  for (MetricsRegistry* r : {&mine, &theirs}) {
    r->counter("iters");
    r->gauge("queue");
    r->histogram("wait");
  }
  mine.counter("iters").add(3);
  theirs.counter("iters").add(4);
  mine.gauge("queue").set(10);
  theirs.gauge("queue").set(7);
  mine.histogram("wait").observe(1e-3);
  theirs.histogram("wait").observe(1.0);

  MetricsSnapshot last_write = mine.snapshot();
  last_write.merge_from(theirs.snapshot(), GaugeMerge::kLastWrite);
  EXPECT_EQ(last_write.find_counter("iters")->value, 7u);
  EXPECT_DOUBLE_EQ(last_write.find_gauge("queue")->value, 7.0);
  EXPECT_EQ(last_write.find_histogram("wait")->count, 2u);

  MetricsSnapshot max_merge = mine.snapshot();
  max_merge.merge_from(theirs.snapshot(), GaugeMerge::kMax);
  EXPECT_EQ(max_merge.find_counter("iters")->value, 7u);
  EXPECT_DOUBLE_EQ(max_merge.find_gauge("queue")->value, 10.0);
  EXPECT_NEAR(max_merge.find_histogram("wait")->sum, 1.001, 1e-9);
}

TEST(MetricsSnapshot, MergeFromRejectsMismatchedInstrumentSets) {
  MetricsRegistry mine;
  MetricsRegistry theirs;
  mine.counter("a");
  theirs.counter("b");
  MetricsSnapshot snap = mine.snapshot();
  EXPECT_THROW(snap.merge_from(theirs.snapshot(), GaugeMerge::kLastWrite),
               Error);
}

TEST(MetricsSnapshot, ApplySummedRejectsMismatchedPayload) {
  MetricsRegistry registry;
  registry.counter("a");
  MetricsSnapshot snap = registry.snapshot();
  std::vector<Real> wrong(snap.pack_additive().size() + 1, Real(0));
  EXPECT_THROW(snap.apply_summed(wrong), Error);
}

TEST(MetricsSnapshot, ToJsonParses) {
  VQMC_SKIP_WITHOUT_TELEMETRY();
  MetricsRegistry registry;
  registry.counter("n").add(7);
  registry.gauge("lr").set(0.01);
  registry.histogram("t").observe(0.25);
  const vqmc::testing::JsonValue doc =
      vqmc::testing::parse_json(registry.snapshot().to_json());
  ASSERT_TRUE(doc.is_object());
  EXPECT_DOUBLE_EQ(doc.at("counters").at("n").number_value, 7.0);
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("lr").number_value, 0.01);
  const vqmc::testing::JsonValue& hist = doc.at("histograms").at("t");
  EXPECT_DOUBLE_EQ(hist.at("count").number_value, 1.0);
  EXPECT_TRUE(hist.has("p50"));
  EXPECT_TRUE(hist.has("p95"));
  EXPECT_TRUE(hist.has("p99"));
}

TEST(ScopedMetricsRegistry, RoutesAndRestoresThreadLocalCurrent) {
  VQMC_SKIP_WITHOUT_TELEMETRY();
  MetricsRegistry mine;
  EXPECT_EQ(&metrics(), &MetricsRegistry::global());
  {
    const ScopedMetricsRegistry scope(mine);
    EXPECT_EQ(&metrics(), &mine);
    metrics().counter("scoped").add();
  }
  EXPECT_EQ(&metrics(), &MetricsRegistry::global());
  EXPECT_EQ(mine.counter("scoped").value(), 1u);
}

TEST(ScopedMetricsRegistry, IsPerThread) {
  MetricsRegistry mine;
  const ScopedMetricsRegistry scope(mine);
  std::thread other([] {
    // The override is thread-local: a different thread still sees global().
    EXPECT_EQ(&metrics(), &MetricsRegistry::global());
  });
  other.join();
}

TEST(Telemetry, RuntimeDisableMakesUpdatesNoOps) {
  MetricsRegistry registry;
  set_enabled(false);
  registry.counter("c").add(5);
  registry.gauge("g").set(1.0);
  registry.histogram("h").observe(1.0);
  set_enabled(true);
  EXPECT_EQ(registry.counter("c").value(), 0u);
  EXPECT_DOUBLE_EQ(registry.gauge("g").value(), 0.0);
  EXPECT_EQ(registry.histogram("h").count(), 0u);
}

}  // namespace
}  // namespace vqmc::telemetry
