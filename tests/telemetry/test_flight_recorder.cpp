/// \file test_flight_recorder.cpp
/// \brief Flight-recorder ring semantics, crash-report schema, and
/// dump-on-abort behavior (DESIGN.md §5i).

#include "telemetry/flight_recorder.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/reporting.hpp"
#include "core/trainer.hpp"
#include "hamiltonian/transverse_field_ising.hpp"
#include "nn/made.hpp"
#include "optim/adam.hpp"
#include "parallel/distributed_trainer.hpp"
#include "sampler/autoregressive_sampler.hpp"
#include "support/alloc_count.hpp"
#include "support/mini_json.hpp"
#include "support/scratch_dir.hpp"
#include "support/telemetry_gate.hpp"
#include "telemetry/telemetry.hpp"

namespace vqmc::telemetry {
namespace {

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) lines.push_back(line);
  return lines;
}

FlightRecord make_record(std::int64_t iteration, int rank = 0) {
  FlightRecord r;
  r.iteration = iteration;
  r.rank = rank;
  r.live_ranks = 1;
  r.wall_us = now_us();
  r.energy = -1.5 * double(iteration);
  return r;
}

/// The recorder is process-global; every test starts from a clean ring and
/// leaves crash dumping disabled for the rest of the binary.
class FlightRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FlightRecorder::instance().configure(FlightRecorder::kDefaultCapacity);
    FlightRecorder::instance().set_crash_dir("");
  }
  void TearDown() override {
    FlightRecorder::instance().configure(FlightRecorder::kDefaultCapacity);
    FlightRecorder::instance().set_crash_dir("");
    set_enabled(true);
  }
};

TEST_F(FlightRecorderTest, RingDropsOldestBeyondCapacity) {
  VQMC_SKIP_WITHOUT_TELEMETRY();
  FlightRecorder& rec = FlightRecorder::instance();
  rec.configure(4);
  for (int i = 0; i < 10; ++i) rec.record(make_record(i));
  EXPECT_EQ(rec.recorded(), 10u);
  const std::vector<FlightRecord> ring = rec.snapshot();
  ASSERT_EQ(ring.size(), 4u);
  // Oldest first, and only the newest four survive.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(ring[std::size_t(i)].iteration, 6 + i);
}

TEST_F(FlightRecorderTest, SnapshotAndLatestFilterByRank) {
  VQMC_SKIP_WITHOUT_TELEMETRY();
  FlightRecorder& rec = FlightRecorder::instance();
  for (int i = 0; i < 6; ++i) rec.record(make_record(i, /*rank=*/i % 2));
  EXPECT_EQ(rec.snapshot().size(), 6u);
  const std::vector<FlightRecord> rank1 = rec.snapshot(1);
  ASSERT_EQ(rank1.size(), 3u);
  for (const FlightRecord& r : rank1) EXPECT_EQ(r.rank, 1);
  FlightRecord last;
  ASSERT_TRUE(rec.latest(last));
  EXPECT_EQ(last.iteration, 5);
  ASSERT_TRUE(rec.latest(last, /*rank=*/0));
  EXPECT_EQ(last.iteration, 4);
  EXPECT_FALSE(rec.latest(last, /*rank=*/7));
}

TEST_F(FlightRecorderTest, ClearKeepsCapacityAndEmptiesRing) {
  VQMC_SKIP_WITHOUT_TELEMETRY();
  FlightRecorder& rec = FlightRecorder::instance();
  rec.configure(8);
  for (int i = 0; i < 5; ++i) rec.record(make_record(i));
  rec.clear();
  EXPECT_EQ(rec.recorded(), 0u);
  EXPECT_TRUE(rec.snapshot().empty());
  for (int i = 0; i < 12; ++i) rec.record(make_record(i));
  EXPECT_EQ(rec.snapshot().size(), 8u);
}

TEST_F(FlightRecorderTest, IterationRateFromWallClockSpread) {
  VQMC_SKIP_WITHOUT_TELEMETRY();
  FlightRecorder& rec = FlightRecorder::instance();
  // Synthetic clock: 10 iterations spaced exactly 1 ms apart -> 1000 it/s.
  FlightRecord r = make_record(0);
  const double base_us = 1e6;
  for (int i = 0; i < 10; ++i) {
    r.iteration = i;
    r.wall_us = base_us + double(i) * 1e3;
    rec.record(r);
  }
  EXPECT_NEAR(rec.iteration_rate(), 1000.0, 1e-6);
  // A window narrower than the ring uses only the newest entries.
  EXPECT_NEAR(rec.iteration_rate(-1, 4), 1000.0, 1e-6);
  rec.clear();
  rec.record(make_record(0));
  EXPECT_DOUBLE_EQ(rec.iteration_rate(), 0.0);  // fewer than two entries
}

TEST_F(FlightRecorderTest, DisabledRecordIsANoOpAndAllocatesNothing) {
  FlightRecorder& rec = FlightRecorder::instance();
  rec.configure(16);
  rec.record(make_record(0));  // warm-up: ring exists, lazy state built
  const std::uint64_t baseline = rec.recorded();
  set_enabled(false);
  const std::uint64_t before = vqmc::testing::allocation_count();
  for (int i = 0; i < 1000; ++i) rec.record(make_record(i));
  const std::uint64_t after = vqmc::testing::allocation_count();
  set_enabled(true);
  EXPECT_EQ(after, before);
  EXPECT_EQ(rec.recorded(), baseline);
}

TEST_F(FlightRecorderTest, DumpWithoutCrashDirOrEntriesWritesNothing) {
  FlightRecorder& rec = FlightRecorder::instance();
  rec.record(make_record(0));
  EXPECT_EQ(rec.dump_crash_report("no dir configured"), "");
  const testing::ScratchDir scratch("fr_empty");
  const std::string& dir = scratch.path();
  rec.clear();
  rec.set_crash_dir(dir);
  EXPECT_EQ(rec.dump_crash_report("empty ring"), "");
}

TEST_F(FlightRecorderTest, CrashReportFollowsTheDocumentedSchema) {
  VQMC_SKIP_WITHOUT_TELEMETRY();
  FlightRecorder& rec = FlightRecorder::instance();
  rec.configure(8);
  const testing::ScratchDir scratch("fr_schema");
  const std::string& dir = scratch.path();
  rec.set_crash_dir(dir);
  EXPECT_EQ(rec.crash_dir(), dir);
  for (int i = 0; i < 12; ++i) {
    FlightRecord r = make_record(i, /*rank=*/3);
    r.guard_trips = std::uint64_t(i);
    for (std::size_t k = 0; k < std::size(kPhases); ++k)
      r.phases.*kPhases[k].member = 0.25 * double(k + 1);
    rec.record(r);
  }

  const std::string path =
      rec.dump_crash_report("deliberate \"test\" dump", /*rank=*/3);
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.rfind(dir + "/vqmc_crash.rank3.pid", 0), 0u);
  EXPECT_EQ(path.substr(path.size() - 6), ".jsonl");

  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 9u);  // header + 8 ring entries

  const vqmc::testing::JsonValue header = vqmc::testing::parse_json(lines[0]);
  EXPECT_EQ(header.at("event").string_value, "crash_report");
  // The reason survives JSON-escaping of the embedded quotes.
  EXPECT_EQ(header.at("reason").string_value, "deliberate \"test\" dump");
  EXPECT_DOUBLE_EQ(header.at("rank").number_value, 3.0);
  EXPECT_DOUBLE_EQ(header.at("recorded").number_value, 12.0);
  EXPECT_DOUBLE_EQ(header.at("entries").number_value, 8.0);
  EXPECT_DOUBLE_EQ(header.at("signal").number_value, 0.0);
  EXPECT_TRUE(header.has("pid"));
  EXPECT_TRUE(header.has("unix_time"));

  // Entries are oldest first and carry the full phase breakdown: one
  // `<name>_seconds` key per kPhases row next to the non-phase keys.
  std::set<std::string> keys = {"event",       "iteration",  "rank", "energy",
                                "guard_trips", "live_ranks", "wall_us"};
  for (const Phase& phase : kPhases) keys.insert(phase.key);
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const vqmc::testing::JsonValue entry = vqmc::testing::parse_json(lines[i]);
    EXPECT_EQ(entry.at("event").string_value, "iteration");
    EXPECT_DOUBLE_EQ(entry.at("iteration").number_value, double(3 + i));
    EXPECT_DOUBLE_EQ(entry.at("rank").number_value, 3.0);
    std::set<std::string> entry_keys;
    for (const auto& [key, value] : entry.object_value) entry_keys.insert(key);
    EXPECT_EQ(entry_keys, keys);
    for (std::size_t k = 0; k < std::size(kPhases); ++k)
      EXPECT_DOUBLE_EQ(entry.at(kPhases[k].key).number_value,
                       0.25 * double(k + 1))
          << kPhases[k].key;
  }
}

TEST_F(FlightRecorderTest, CrashReportMatchesTheRunsMetricsCsv) {
  VQMC_SKIP_WITHOUT_TELEMETRY();
  // The ring is evidence, not an approximation: a trainer's crash report
  // must agree row-for-row with the metrics CSV the same run would have
  // written at a clean exit.
  FlightRecorder& rec = FlightRecorder::instance();
  rec.configure(8);
  const testing::ScratchDir scratch("fr_csv");
  const std::string& dir = scratch.path();
  rec.set_crash_dir(dir);

  const std::size_t n = 5;
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(n, 2);
  Made made(n, 6);
  made.initialize(4);
  AutoregressiveSampler sampler(made, 9);
  Adam adam(0.01);
  TrainerConfig cfg;
  cfg.iterations = 12;
  cfg.batch_size = 16;
  VqmcTrainer trainer(tim, made, sampler, adam, cfg);
  trainer.run();

  const std::string path = rec.dump_crash_report("post-run audit");
  ASSERT_FALSE(path.empty());
  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 9u);  // header + ring capacity

  // CSV rows for the same run (data lines, skipping the header).
  std::vector<std::string> csv_rows;
  {
    std::istringstream csv(metrics_to_csv(trainer.history()));
    std::string row;
    std::getline(csv, row);  // column header
    while (std::getline(csv, row)) csv_rows.push_back(row);
  }
  ASSERT_EQ(csv_rows.size(), 12u);

  // The ring holds the last 8 iterations (4..11); each JSONL entry must
  // match its CSV row on iteration, energy and guard trips.
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const vqmc::testing::JsonValue entry = vqmc::testing::parse_json(lines[i]);
    const int iteration = int(entry.at("iteration").number_value);
    EXPECT_EQ(iteration, int(3 + i));
    const IterationMetrics& m = trainer.history()[std::size_t(iteration)];
    std::istringstream row(csv_rows[std::size_t(iteration)]);
    std::string cell;
    std::getline(row, cell, ',');
    EXPECT_EQ(std::stoi(cell), iteration);
    std::getline(row, cell, ',');
    EXPECT_DOUBLE_EQ(std::stod(cell), entry.at("energy").number_value);
    EXPECT_DOUBLE_EQ(entry.at("energy").number_value, double(m.energy));
    EXPECT_DOUBLE_EQ(entry.at("guard_trips").number_value,
                     double(m.guard_trips));
  }
}

TEST_F(FlightRecorderTest, DistributedAbortDumpsCrashReports) {
  VQMC_SKIP_WITHOUT_TELEMETRY();
  // A hung collective aborts the group with CommTimeoutError; every rank's
  // unwind path must leave a crash report behind (the whole point of the
  // recorder — post-mortem sinks never run on this path).
  FlightRecorder& rec = FlightRecorder::instance();
  rec.configure(64);
  const testing::ScratchDir scratch("fr_abort");
  const std::string& dir = scratch.path();
  rec.set_crash_dir(dir);

  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(5, 2);
  Made made(5, 6);
  made.initialize(3);

  parallel::DistributedConfig cfg;
  cfg.shape = {1, 3};
  cfg.iterations = 30;
  cfg.mini_batch_size = 8;
  cfg.eval_batch_per_rank = 32;
  cfg.seed = 11;
  cfg.comm_timeout_seconds = 0.25;
  cfg.fault_plans.resize(3);
  // ~2 collectives per iteration: call 10 hangs a few iterations in, so the
  // ring holds real iteration evidence when the abort unwinds.
  cfg.fault_plans[1].hang_at_call = 10;
  cfg.fault_plans[1].hang_seconds = 3600;
  EXPECT_THROW(parallel::train_distributed(tim, made, cfg), CommTimeoutError);

  // Thread-backed ranks share one process: reports land in the same dir,
  // one file per dumping rank, tagged with its rank id.
  std::vector<std::string> reports;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.path().filename().string().rfind("vqmc_crash.rank", 0) == 0)
      reports.push_back(entry.path().string());
  ASSERT_FALSE(reports.empty());

  for (const std::string& path : reports) {
    const std::vector<std::string> lines = read_lines(path);
    ASSERT_GE(lines.size(), 2u) << path;
    const vqmc::testing::JsonValue header =
        vqmc::testing::parse_json(lines[0]);
    EXPECT_EQ(header.at("event").string_value, "crash_report");
    // The reason is the CommTimeoutError message from the unwinding rank.
    EXPECT_NE(header.at("reason").string_value.find("timed out"),
              std::string::npos)
        << header.at("reason").string_value;
    EXPECT_DOUBLE_EQ(header.at("entries").number_value,
                     double(lines.size() - 1));
    // The ring held real iteration evidence at abort time.
    const vqmc::testing::JsonValue last_entry =
        vqmc::testing::parse_json(lines.back());
    EXPECT_EQ(last_entry.at("event").string_value, "iteration");
    EXPECT_GE(last_entry.at("iteration").number_value, 0.0);
  }
}

}  // namespace
}  // namespace vqmc::telemetry
