#include "telemetry/tracer.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hpp"
#include "support/alloc_count.hpp"
#include "support/mini_json.hpp"
#include "support/telemetry_gate.hpp"
#include "telemetry/telemetry.hpp"

namespace vqmc::telemetry {
namespace {

class TracerTest : public ::testing::Test {
 protected:
  void TearDown() override {
    Tracer::instance().stop();
    Tracer::instance().clear();
    set_iteration(-1);
    vqmc::set_log_rank(-1);
  }
};

TEST_F(TracerTest, InactiveTracerRecordsNothing) {
  Tracer::instance().clear();
  { TELEMETRY_SPAN("ignored"); }
  EXPECT_TRUE(Tracer::instance().events().empty());
}

TEST_F(TracerTest, RecordsNestedSpansWithDepth) {
  VQMC_SKIP_WITHOUT_TELEMETRY();
  Tracer::instance().start();
  {
    TELEMETRY_SPAN("outer");
    {
      TELEMETRY_SPAN("inner");
    }
  }
  Tracer::instance().stop();
  const std::vector<TraceEvent> events = Tracer::instance().events();
  ASSERT_EQ(events.size(), 2u);
  // Sorted by start time: outer first, then inner.
  EXPECT_STREQ(events[0].name, "outer");
  EXPECT_STREQ(events[1].name, "inner");
  EXPECT_EQ(events[0].depth, 0);
  EXPECT_EQ(events[1].depth, 1);
  // The inner span is contained in the outer one.
  EXPECT_GE(events[1].ts_us, events[0].ts_us);
  EXPECT_LE(events[1].ts_us + events[1].dur_us,
            events[0].ts_us + events[0].dur_us + 1.0);
}

TEST_F(TracerTest, CarriesIterationAndRankContext) {
  VQMC_SKIP_WITHOUT_TELEMETRY();
  Tracer::instance().start();
  vqmc::set_log_rank(3);
  set_iteration(17);
  { TELEMETRY_SPAN("step"); }
  set_iteration(-1);
  vqmc::set_log_rank(-1);
  Tracer::instance().stop();
  const std::vector<TraceEvent> events = Tracer::instance().events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].rank, 3);
  EXPECT_EQ(events[0].iteration, 17);
}

TEST_F(TracerTest, ManyThreadsRecordConcurrently) {
  VQMC_SKIP_WITHOUT_TELEMETRY();
  Tracer::instance().start();
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([t] {
      vqmc::set_log_rank(t);
      for (int i = 0; i < kSpansPerThread; ++i) {
        TELEMETRY_SPAN("work");
      }
    });
  for (std::thread& t : threads) t.join();
  Tracer::instance().stop();
  const std::vector<TraceEvent> events = Tracer::instance().events();
  EXPECT_EQ(events.size(), std::size_t(kThreads) * kSpansPerThread);
  EXPECT_EQ(Tracer::instance().dropped(), 0u);
  std::set<int> ranks;
  for (const TraceEvent& e : events) ranks.insert(e.rank);
  EXPECT_EQ(ranks.size(), std::size_t(kThreads));
  // Sorted output: ts monotone non-decreasing.
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_GE(events[i].ts_us, events[i - 1].ts_us);
}

TEST_F(TracerTest, RingBufferDropsOldestBeyondCapacity) {
  VQMC_SKIP_WITHOUT_TELEMETRY();
  Tracer::instance().start(/*events_per_thread=*/8);
  for (int i = 0; i < 20; ++i) {
    TELEMETRY_SPAN("s");
  }
  Tracer::instance().stop();
  EXPECT_EQ(Tracer::instance().events().size(), 8u);
  EXPECT_EQ(Tracer::instance().dropped(), 12u);
}

TEST_F(TracerTest, ChromeJsonIsValidAndMonotone) {
  VQMC_SKIP_WITHOUT_TELEMETRY();
  Tracer::instance().start();
  vqmc::set_log_rank(0);
  for (int i = 0; i < 3; ++i) {
    set_iteration(i);
    TELEMETRY_SPAN("iteration");
    { TELEMETRY_SPAN("sample"); }
    { TELEMETRY_SPAN("optimizer"); }
  }
  set_iteration(-1);
  vqmc::set_log_rank(-1);
  Tracer::instance().stop();

  const std::string json = Tracer::instance().to_chrome_json();
  const vqmc::testing::JsonValue doc = vqmc::testing::parse_json(json);
  ASSERT_TRUE(doc.is_object());
  ASSERT_TRUE(doc.has("traceEvents"));
  const auto& events = doc.at("traceEvents").array_value;
  ASSERT_GE(events.size(), 9u);

  double last_ts = -1;
  std::size_t complete_events = 0;
  for (const auto& e : events) {
    ASSERT_TRUE(e.is_object());
    const std::string ph = e.at("ph").string_value;
    if (ph == "M") continue;  // thread_name metadata
    EXPECT_EQ(ph, "X");
    EXPECT_TRUE(e.at("name").is_string());
    EXPECT_TRUE(e.at("ts").is_number());
    EXPECT_TRUE(e.at("dur").is_number());
    EXPECT_TRUE(e.at("pid").is_number());
    EXPECT_TRUE(e.at("tid").is_number());
    EXPECT_GE(e.at("ts").number_value, last_ts);
    last_ts = e.at("ts").number_value;
    ++complete_events;
  }
  EXPECT_EQ(complete_events, 9u);
}

TEST_F(TracerTest, StartClearsPreviousRun) {
  VQMC_SKIP_WITHOUT_TELEMETRY();
  Tracer::instance().start();
  { TELEMETRY_SPAN("old"); }
  Tracer::instance().stop();
  ASSERT_EQ(Tracer::instance().events().size(), 1u);
  Tracer::instance().start();
  { TELEMETRY_SPAN("new"); }
  Tracer::instance().stop();
  const std::vector<TraceEvent> events = Tracer::instance().events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "new");
}

TEST_F(TracerTest, InactiveSpansAllocateNothing) {
  Tracer::instance().stop();
  // Warm up any lazily-created thread state before counting.
  { TELEMETRY_SPAN("warmup"); }
  const std::uint64_t before = vqmc::testing::allocation_count();
  for (int i = 0; i < 1000; ++i) {
    TELEMETRY_SPAN("inactive");
  }
  const std::uint64_t after = vqmc::testing::allocation_count();
  EXPECT_EQ(after, before);
}

TEST_F(TracerTest, RuntimeDisabledSpansAllocateNothingEvenWhenActive) {
  Tracer::instance().start();
  set_enabled(false);
  { TELEMETRY_SPAN("warmup"); }
  const std::uint64_t before = vqmc::testing::allocation_count();
  for (int i = 0; i < 1000; ++i) {
    TELEMETRY_SPAN("disabled");
  }
  const std::uint64_t after = vqmc::testing::allocation_count();
  set_enabled(true);
  Tracer::instance().stop();
  EXPECT_EQ(after, before);
  EXPECT_TRUE(Tracer::instance().events().empty());
}

}  // namespace
}  // namespace vqmc::telemetry
