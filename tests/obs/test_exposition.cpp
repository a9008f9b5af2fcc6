/// \file test_exposition.cpp
/// \brief StatusServer scrape protocol, per-rank endpoint derivation, group
/// aggregation with dead ranks, and concurrent scrape/mutate hammering
/// (DESIGN.md §5i).

#include "obs/exposition.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "support/mini_json.hpp"
#include "support/scratch_dir.hpp"
#include "support/telemetry_gate.hpp"
#include "telemetry/metrics_registry.hpp"

namespace vqmc::obs {
namespace {

/// Provider over a caller-owned registry plus a couple of fields — the same
/// shape the trainer and serve CLIs wire up.
StatusProvider registry_provider(telemetry::MetricsRegistry& registry) {
  return [&registry] {
    StatusReport report;
    report.add_metrics(registry.snapshot());
    report.set_field("energy", -10.5);
    return report;
  };
}

TEST(RankEndpoint, DerivesPerRankSpecs) {
  EXPECT_EQ(rank_endpoint("unix:///tmp/obs.sock", 0), "unix:///tmp/obs.sock");
  EXPECT_EQ(rank_endpoint("unix:///tmp/obs.sock", 2),
            "unix:///tmp/obs.sock.r2");
  EXPECT_EQ(rank_endpoint("tcp://127.0.0.1:9100", 0), "tcp://127.0.0.1:9100");
  EXPECT_EQ(rank_endpoint("tcp://127.0.0.1:9100", 3), "tcp://127.0.0.1:9103");
  // Ephemeral ports cannot be derived for peers; spec errors are loud.
  EXPECT_THROW(rank_endpoint("tcp://127.0.0.1:0", 1), Error);
  EXPECT_THROW(rank_endpoint("http://host:80", 1), Error);
}

TEST(RankEndpoint, MalformedPortsAreTypedErrorsNamingTheEndpoint) {
  for (const char* port : {"abc", "0junk", " 0", "+0", "", "-1", "65536"}) {
    const std::string base = std::string("tcp://127.0.0.1:") + port;
    try {
      const std::string derived = rank_endpoint(base, 1);
      ADD_FAILURE() << "'" << base << "' derived '" << derived << "'";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(base), std::string::npos)
          << e.what();
    }
  }
  // The derived port must itself be a port.
  EXPECT_EQ(rank_endpoint("tcp://127.0.0.1:65534", 1),
            "tcp://127.0.0.1:65535");
  EXPECT_THROW(rank_endpoint("tcp://127.0.0.1:65535", 1), Error);
  EXPECT_THROW(rank_endpoint("tcp://127.0.0.1:65530", 6), Error);
}

TEST(StatusServer, ServesEveryFormatOverTcp) {
  VQMC_SKIP_WITHOUT_TELEMETRY();
  telemetry::MetricsRegistry registry;
  registry.counter("trainer.iterations").add(42);
  registry.gauge("serve.queue_depth").set(3);
  registry.histogram("comm.allreduce_wait_seconds").observe(0.002);

  // Ephemeral port: endpoint() reports the kernel-assigned one.
  StatusServer server({.endpoint = "tcp://127.0.0.1:0"},
                      registry_provider(registry));
  ASSERT_NE(server.endpoint(), "tcp://127.0.0.1:0");

  const std::string prom = fetch_status(server.endpoint(), "prom", 5.0);
  EXPECT_NE(prom.find("vqmc_up 1"), std::string::npos);
  EXPECT_NE(prom.find("vqmc_trainer_iterations{rank=\"0\"} 42"),
            std::string::npos);

  const vqmc::testing::JsonValue doc =
      vqmc::testing::parse_json(fetch_status(server.endpoint(), "json", 5.0));
  ASSERT_TRUE(doc.is_object());
  ASSERT_EQ(doc.at("ranks").array_value.size(), 1u);
  EXPECT_DOUBLE_EQ(doc.at("ranks")
                       .array_value[0]
                       .at("counters")
                       .at("trainer.iterations")
                       .number_value,
                   42.0);

  const std::string table = fetch_status(server.endpoint(), "table", 5.0);
  EXPECT_NE(table.find("rank"), std::string::npos);
  EXPECT_NE(table.find("42"), std::string::npos);

  const std::vector<StatusReport> raw =
      decode_reports(fetch_status(server.endpoint(), "raw", 5.0));
  ASSERT_EQ(raw.size(), 1u);
  EXPECT_EQ(raw[0].find_counter("trainer.iterations")->value, 42u);
  EXPECT_DOUBLE_EQ(raw[0].field_double("energy"), -10.5);
}

TEST(StatusServer, ServesOverUnixSocketAndSurvivesSequentialScrapes) {
  VQMC_SKIP_WITHOUT_TELEMETRY();
  const testing::ScratchDir scratch("obs_unix");
  const std::string& dir = scratch.path();
  telemetry::MetricsRegistry registry;
  telemetry::Counter& scrapes = registry.counter("scrapes");
  StatusServer server({.endpoint = "unix://" + dir + "/obs.sock"},
                      registry_provider(registry));
  for (int i = 1; i <= 5; ++i) {
    scrapes.add();
    const std::string raw = fetch_status(server.endpoint(), "raw", 5.0);
    const std::vector<StatusReport> reports = decode_reports(raw);
    ASSERT_EQ(reports.size(), 1u);
    // Collect-on-demand: each scrape sees the registry's current value.
    EXPECT_EQ(reports[0].find_counter("scrapes")->value, std::uint64_t(i));
  }
}

TEST(StatusServer, RejectsUnknownFormatWithoutDying) {
  telemetry::MetricsRegistry registry;
  StatusServer server({.endpoint = "tcp://127.0.0.1:0"},
                      registry_provider(registry));
  // The server drops the bad client's connection; the recv side of the
  // scrape fails, but the next well-formed scrape still answers.
  EXPECT_THROW((void)fetch_status(server.endpoint(), "yaml", 2.0), Error);
  const std::string prom = fetch_status(server.endpoint(), "prom", 5.0);
  EXPECT_NE(prom.find("vqmc_up 1"), std::string::npos);
}

TEST(StatusServer, AggregatesTheGroupAndReportsDeadRanks) {
  VQMC_SKIP_WITHOUT_TELEMETRY();
  const testing::ScratchDir scratch("obs_group");
  const std::string& dir = scratch.path();
  const std::string base = "unix://" + dir + "/obs.sock";

  telemetry::MetricsRegistry reg0;
  telemetry::MetricsRegistry reg1;
  reg0.counter("trainer.iterations").add(10);
  reg1.counter("trainer.iterations").add(20);

  StatusServer rank0({.endpoint = rank_endpoint(base, 0),
                      .rank = 0,
                      .world = 2,
                      .group_base = base,
                      .pull_deadline_seconds = 0.5},
                     registry_provider(reg0));
  auto rank1 = std::make_unique<StatusServer>(
      StatusServerOptions{.endpoint = rank_endpoint(base, 1),
                          .rank = 1,
                          .world = 2},
      registry_provider(reg1));

  // One scrape of the base endpoint exposes both ranks.
  {
    const vqmc::testing::JsonValue doc =
        vqmc::testing::parse_json(fetch_status(base, "json", 5.0));
    const auto& ranks = doc.at("ranks").array_value;
    ASSERT_EQ(ranks.size(), 2u);
    EXPECT_DOUBLE_EQ(ranks[0].at("reachable").number_value, 1.0);
    EXPECT_DOUBLE_EQ(ranks[1].at("reachable").number_value, 1.0);
    EXPECT_DOUBLE_EQ(
        ranks[0].at("counters").at("trainer.iterations").number_value, 10.0);
    EXPECT_DOUBLE_EQ(
        ranks[1].at("counters").at("trainer.iterations").number_value, 20.0);
  }

  // Kill rank 1: the group scrape still succeeds, the dead rank is data.
  rank1.reset();
  {
    const vqmc::testing::JsonValue doc =
        vqmc::testing::parse_json(fetch_status(base, "json", 5.0));
    const auto& ranks = doc.at("ranks").array_value;
    ASSERT_EQ(ranks.size(), 2u);
    EXPECT_DOUBLE_EQ(ranks[0].at("reachable").number_value, 1.0);
    EXPECT_DOUBLE_EQ(ranks[1].at("reachable").number_value, 0.0);
    const std::string prom = fetch_status(base, "prom", 5.0);
    EXPECT_NE(prom.find("vqmc_rank_reachable{rank=\"1\"} 0"),
              std::string::npos);
  }
}

TEST(StatusServer, ConcurrentScrapesWhileTrainingMutatesTheRegistry) {
  // The TSan-facing test: 8 scraper threads hammer the snapshot path while
  // a "trainer" thread mutates every instrument kind. Failures here are
  // data races in MetricsRegistry::snapshot() vs add/set/observe, or frame
  // handling bugs under connection churn.
  telemetry::MetricsRegistry registry;
  telemetry::Counter& iterations = registry.counter("trainer.iterations");
  telemetry::Gauge& queue = registry.gauge("serve.queue_depth");
  telemetry::Histogram& wait =
      registry.histogram("comm.allreduce_wait_seconds");

  StatusServer server({.endpoint = "tcp://127.0.0.1:0"},
                      registry_provider(registry));

  std::atomic<bool> stop{false};
  std::thread trainer([&] {
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      iterations.add();
      queue.set(double(i % 17));
      wait.observe(1e-4 * double(1 + i % 50));
      ++i;
    }
  });

  constexpr int kScrapers = 8;
  constexpr int kScrapesEach = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> scrapers;
  scrapers.reserve(kScrapers);
  for (int t = 0; t < kScrapers; ++t)
    scrapers.emplace_back([&, t] {
      const char* formats[] = {"prom", "json", "raw", "table"};
      for (int i = 0; i < kScrapesEach; ++i) {
        try {
          const std::string body = fetch_status(
              server.endpoint(), formats[(t + i) % 4], /*deadline=*/10.0);
          if (body.empty()) failures.fetch_add(1);
        } catch (const Error&) {
          failures.fetch_add(1);
        }
      }
    });
  for (std::thread& s : scrapers) s.join();
  stop.store(true);
  trainer.join();

  EXPECT_EQ(failures.load(), 0);
  // The registry survived: one final consistent scrape.
  const std::string prom = fetch_status(server.endpoint(), "prom", 5.0);
  EXPECT_NE(prom.find("vqmc_trainer_iterations"), std::string::npos);
}

TEST(StatusServer, StopIsIdempotentAndReleasesTheEndpoint) {
  const testing::ScratchDir scratch("obs_stop");
  const std::string& dir = scratch.path();
  const std::string endpoint = "unix://" + dir + "/obs.sock";
  telemetry::MetricsRegistry registry;
  {
    StatusServer server({.endpoint = endpoint}, registry_provider(registry));
    (void)fetch_status(server.endpoint(), "raw", 5.0);
    server.stop();
    server.stop();
  }
  // A second server can bind the same unix path after the first released it.
  StatusServer again({.endpoint = endpoint}, registry_provider(registry));
  const std::vector<StatusReport> reports =
      decode_reports(fetch_status(again.endpoint(), "raw", 5.0));
  EXPECT_EQ(reports.size(), 1u);
}

TEST(StatusServer, StopRemovesItsSocketFile) {
  const testing::ScratchDir scratch("obs_unlink");
  const std::string& dir = scratch.path();
  const std::string path = dir + "/obs.sock";
  telemetry::MetricsRegistry registry;
  StatusServer server({.endpoint = "unix://" + path},
                      registry_provider(registry));
  EXPECT_TRUE(std::filesystem::exists(path));
  server.stop();
  EXPECT_FALSE(std::filesystem::exists(path));
}

}  // namespace
}  // namespace vqmc::obs
