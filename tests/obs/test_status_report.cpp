/// \file test_status_report.cpp
/// \brief StatusReport wire encoding round-trip and the three renderers
/// (DESIGN.md §5i).

#include "obs/status_report.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"
#include "support/mini_json.hpp"
#include "support/telemetry_gate.hpp"
#include "telemetry/metrics_registry.hpp"

namespace vqmc::obs {
namespace {

StatusReport sample_report(int rank, int world) {
  telemetry::MetricsRegistry registry;
  registry.counter("trainer.iterations").add(500);
  registry.counter("trainer.guard_trips").add(2);
  registry.gauge("serve.queue_depth").set(12);
  for (int i = 0; i < 100; ++i)
    registry.histogram("comm.allreduce_wait_seconds").observe(2e-3);

  StatusReport report;
  report.rank = rank;
  report.world = world;
  report.add_metrics(registry.snapshot());
  report.set_field("energy", -21.948);
  report.set_field("state", "healthy");
  return report;
}

TEST(StatusReport, EncodeDecodeRoundTripsExactly) {
  VQMC_SKIP_WITHOUT_TELEMETRY();
  const StatusReport original = sample_report(2, 4);
  const std::string text = original.encode();
  // Header + terminator frame the line-oriented payload.
  EXPECT_EQ(text.rfind("vqmc-status 1\n", 0), 0u);
  EXPECT_NE(text.find("\nend\n"), std::string::npos);

  const std::vector<StatusReport> decoded = decode_reports(text);
  ASSERT_EQ(decoded.size(), 1u);
  const StatusReport& r = decoded[0];
  EXPECT_EQ(r.rank, 2);
  EXPECT_EQ(r.world, 4);
  ASSERT_NE(r.find_counter("trainer.iterations"), nullptr);
  EXPECT_EQ(r.find_counter("trainer.iterations")->value, 500u);
  ASSERT_NE(r.find_gauge("serve.queue_depth"), nullptr);
  EXPECT_DOUBLE_EQ(r.find_gauge("serve.queue_depth")->value, 12.0);
  const StatusHistogram* h = r.find_histogram("comm.allreduce_wait_seconds");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 100u);
  const StatusHistogram* orig =
      original.find_histogram("comm.allreduce_wait_seconds");
  EXPECT_DOUBLE_EQ(h->sum, orig->sum);
  EXPECT_DOUBLE_EQ(h->p50, orig->p50);
  EXPECT_DOUBLE_EQ(h->p99, orig->p99);
  EXPECT_EQ(r.field("state"), "healthy");
  EXPECT_DOUBLE_EQ(r.field_double("energy"), -21.948);
  EXPECT_EQ(r.field("missing"), "");
  EXPECT_DOUBLE_EQ(r.field_double("missing", -1.0), -1.0);
}

TEST(StatusReport, DecodeParsesConcatenatedReports) {
  const std::string text =
      sample_report(0, 2).encode() + sample_report(1, 2).encode();
  const std::vector<StatusReport> decoded = decode_reports(text);
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].rank, 0);
  EXPECT_EQ(decoded[1].rank, 1);
}

TEST(StatusReport, DecodeRejectsMalformedPayloads) {
  EXPECT_THROW(decode_reports("not-a-status 1\nend\n"), Error);
  EXPECT_THROW(decode_reports("vqmc-status 2\nend\n"), Error);
  // Truncated: no `end` terminator.
  EXPECT_THROW(decode_reports("vqmc-status 1\nfield rank 0\n"), Error);
}

TEST(StatusReport, SetFieldOverwritesInPlace) {
  StatusReport report;
  report.set_field("energy", 1.0);
  report.set_field("energy", 2.0);
  ASSERT_EQ(report.fields.size(), 1u);
  EXPECT_DOUBLE_EQ(report.field_double("energy"), 2.0);
}

TEST(PrometheusName, SanitizesAndPrefixes) {
  EXPECT_EQ(prometheus_name("trainer.iterations"), "vqmc_trainer_iterations");
  EXPECT_EQ(prometheus_name("comm.allreduce_wait_seconds"),
            "vqmc_comm_allreduce_wait_seconds");
  EXPECT_EQ(prometheus_name("weird-name!x"), "vqmc_weird_name_x");
}

GroupStatus sample_group() {
  GroupStatus group;
  group.world = 3;
  for (int r = 0; r < 3; ++r) {
    group.ranks.push_back(sample_report(r, 3));
    group.reachable.push_back(r == 1 ? 0 : 1);
  }
  // Rank 1 is a placeholder for an unreachable peer.
  group.ranks[1] = StatusReport{};
  group.ranks[1].rank = 1;
  group.ranks[1].world = 3;
  return group;
}

TEST(RenderPrometheus, EmitsWellFormedRankLabeledSeries) {
  VQMC_SKIP_WITHOUT_TELEMETRY();
  const std::string text = render_prometheus(sample_group());
  EXPECT_NE(text.find("vqmc_up 1\n"), std::string::npos);
  EXPECT_NE(text.find("vqmc_rank_reachable{rank=\"0\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("vqmc_rank_reachable{rank=\"1\"} 0"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE vqmc_trainer_iterations counter"),
            std::string::npos);
  EXPECT_NE(text.find("vqmc_trainer_iterations{rank=\"0\"} 500"),
            std::string::npos);
  EXPECT_NE(text.find("vqmc_trainer_iterations{rank=\"2\"} 500"),
            std::string::npos);
  // The unreachable rank contributes no metric series.
  EXPECT_EQ(text.find("vqmc_trainer_iterations{rank=\"1\"}"),
            std::string::npos);
  // Histogram summaries expose quantile series plus _sum/_count.
  EXPECT_NE(
      text.find(
          "vqmc_comm_allreduce_wait_seconds{rank=\"0\",quantile=\"0.99\"}"),
      std::string::npos);
  EXPECT_NE(text.find("vqmc_comm_allreduce_wait_seconds_count{rank=\"0\"}"),
            std::string::npos);
  EXPECT_NE(text.find("vqmc_comm_allreduce_wait_seconds_sum{rank=\"0\"}"),
            std::string::npos);
  // Every non-comment line is `name{labels} value` or `name value`.
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    ASSERT_NE(eol, std::string::npos);  // text ends with a newline
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_EQ(line.rfind("vqmc_", 0), 0u) << line;
    EXPECT_NO_THROW((void)std::stod(line.substr(space + 1))) << line;
  }
}

TEST(SplitMetricName, SeparatesEmbeddedLabelBodies) {
  const SplitMetricName plain = split_metric_name("serve.submitted");
  EXPECT_EQ(plain.base, "serve.submitted");
  EXPECT_EQ(plain.labels, "");
  const SplitMetricName labeled =
      split_metric_name("serve.model.submitted{model=\"m0\"}");
  EXPECT_EQ(labeled.base, "serve.model.submitted");
  EXPECT_EQ(labeled.labels, "model=\"m0\"");
  // A brace without the closing '}' is not a label body — keep it verbatim
  // (prometheus_name will sanitize it away).
  const SplitMetricName odd = split_metric_name("weird{half");
  EXPECT_EQ(odd.base, "weird{half");
  EXPECT_EQ(odd.labels, "");
}

TEST(RenderPrometheus, MergesEmbeddedLabelsWithRankAndGroupsFamilies) {
  VQMC_SKIP_WITHOUT_TELEMETRY();
  telemetry::MetricsRegistry registry;
  using telemetry::labeled_name;
  registry.counter(labeled_name("serve.model.submitted", {{"model", "m0"}}))
      .add(7);
  registry.counter(labeled_name("serve.model.submitted", {{"model", "m1"}}))
      .add(9);
  registry
      .counter(labeled_name("serve.tenant.quota_rejected",
                            {{"tenant", "alice"}}))
      .add(3);
  for (int i = 0; i < 8; ++i)
    registry
        .histogram(
            labeled_name("serve.lane.latency_seconds", {{"lane", "batch"}}))
        .observe(1e-3);

  StatusReport report;
  report.rank = 0;
  report.world = 1;
  report.add_metrics(registry.snapshot());
  const std::string text =
      render_prometheus(GroupStatus::single(std::move(report)));

  // Embedded labels merge with the rank label into one series.
  EXPECT_NE(text.find(
                "vqmc_serve_model_submitted{rank=\"0\",model=\"m0\"} 7"),
            std::string::npos);
  EXPECT_NE(text.find(
                "vqmc_serve_model_submitted{rank=\"0\",model=\"m1\"} 9"),
            std::string::npos);
  EXPECT_NE(
      text.find(
          "vqmc_serve_tenant_quota_rejected{rank=\"0\",tenant=\"alice\"} 3"),
      std::string::npos);
  // One TYPE header per *base* family even with several labeled members.
  const std::string type_line = "# TYPE vqmc_serve_model_submitted counter";
  const std::size_t first = text.find(type_line);
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find(type_line, first + 1), std::string::npos);
  // Labeled histograms keep the quantile/_sum/_count structure.
  EXPECT_NE(text.find("# TYPE vqmc_serve_lane_latency_seconds summary"),
            std::string::npos);
  EXPECT_NE(
      text.find("vqmc_serve_lane_latency_seconds{rank=\"0\",lane=\"batch\","
                "quantile=\"0.99\"}"),
      std::string::npos);
  EXPECT_NE(text.find(
                "vqmc_serve_lane_latency_seconds_count{rank=\"0\","
                "lane=\"batch\"} 8"),
            std::string::npos);
  EXPECT_NE(text.find("vqmc_serve_lane_latency_seconds_sum{rank=\"0\","
                      "lane=\"batch\"}"),
            std::string::npos);
}

TEST(RenderJson, ParsesAndCarriesPerRankReachability) {
  VQMC_SKIP_WITHOUT_TELEMETRY();
  const vqmc::testing::JsonValue doc =
      vqmc::testing::parse_json(render_json(sample_group()));
  ASSERT_TRUE(doc.is_object());
  EXPECT_DOUBLE_EQ(doc.at("world").number_value, 3.0);
  const auto& ranks = doc.at("ranks").array_value;
  ASSERT_EQ(ranks.size(), 3u);
  EXPECT_DOUBLE_EQ(ranks[0].at("rank").number_value, 0.0);
  EXPECT_DOUBLE_EQ(ranks[0].at("reachable").number_value, 1.0);
  EXPECT_DOUBLE_EQ(ranks[1].at("reachable").number_value, 0.0);
  EXPECT_DOUBLE_EQ(
      ranks[2].at("counters").at("trainer.iterations").number_value, 500.0);
}

TEST(RenderTable, OneRowPerRankAndDownMarkers) {
  const std::string text = render_table(sample_group());
  // Three data rows plus a header; the dead rank is marked DOWN.
  EXPECT_NE(text.find("rank"), std::string::npos);
  EXPECT_NE(text.find("DOWN"), std::string::npos);
  int lines = 0;
  for (const char c : text)
    if (c == '\n') ++lines;
  EXPECT_GE(lines, 4);
}

TEST(GroupStatus, SingleWrapsOneReachableReport) {
  const GroupStatus group = GroupStatus::single(sample_report(0, 1));
  EXPECT_EQ(group.world, 1);
  ASSERT_EQ(group.ranks.size(), 1u);
  ASSERT_EQ(group.reachable.size(), 1u);
  EXPECT_EQ(group.reachable[0], 1);
  const std::string prom = render_prometheus(group);
  EXPECT_NE(prom.find("vqmc_up 1"), std::string::npos);
}

}  // namespace
}  // namespace vqmc::obs
