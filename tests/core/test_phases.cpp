/// \file test_phases.cpp
/// \brief The phase table (common/phases.hpp, DESIGN.md §5d): a real step
/// fills every phase, and every sink keys exactly the table's phases.

#include "common/phases.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/timer.hpp"
#include "core/reporting.hpp"
#include "core/trainer.hpp"
#include "hamiltonian/transverse_field_ising.hpp"
#include "nn/made.hpp"
#include "optim/sgd.hpp"
#include "parallel/distributed_trainer.hpp"
#include "sampler/autoregressive_sampler.hpp"
#include "support/mini_json.hpp"
#include "support/scratch_dir.hpp"
#include "support/telemetry_gate.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/jsonl.hpp"
#include "telemetry/metrics_registry.hpp"

namespace vqmc {
namespace {

/// `<prefix><name><suffix>` for every kPhases row.
std::set<std::string> table_keys(const std::string& prefix,
                                 const std::string& suffix) {
  std::set<std::string> keys;
  for (const Phase& phase : kPhases) keys.insert(prefix + phase.name + suffix);
  return keys;
}

/// The keys of a JSON object that end in "_seconds".
std::set<std::string> seconds_keys(const testing::JsonValue& object) {
  std::set<std::string> keys;
  for (const auto& [key, value] : object.object_value)
    if (key.ends_with("_seconds")) keys.insert(key);
  return keys;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) lines.push_back(line);
  return lines;
}

TrainerConfig sr_and_checkpoint_config(const std::string& dir) {
  TrainerConfig cfg;
  cfg.batch_size = 64;
  cfg.use_sr = true;
  cfg.checkpoint_path = dir + "/run.ckpt";
  cfg.checkpoint_every = 1;
  return cfg;
}

/// One serial trainer over a small MADE with SR on and a checkpoint after
/// every iteration, so each step runs all seven phases (allreduce as a lone
/// rank's no-op).
class PhaseTable : public ::testing::Test {
 protected:
  void SetUp() override { made_.initialize(4); }

  testing::ScratchDir dir_{"phases"};
  TransverseFieldIsing tim_ = TransverseFieldIsing::random_dense(5, 2);
  Made made_{5, 6};
  AutoregressiveSampler sampler_{made_, 9};
  Sgd sgd_{0.05};
  VqmcTrainer trainer_{tim_, made_, sampler_, sgd_,
                       sr_and_checkpoint_config(dir_.path())};
};

TEST(PhaseBreakdown, SumAndTotalIterateEveryRowOnce) {
  PhaseBreakdown one;
  for (std::size_t k = 0; k < std::size(kPhases); ++k)
    one.*kPhases[k].member = double(k + 1);
  PhaseBreakdown sum;
  sum += one;
  sum += one;
  for (std::size_t k = 0; k < std::size(kPhases); ++k)
    EXPECT_EQ(sum.*kPhases[k].member, 2.0 * double(k + 1)) << kPhases[k].name;
  EXPECT_EQ(one.total(), 28.0);
}

TEST_F(PhaseTable, OneSerialStepFillsEveryPhase) {
  const Timer wall;
  const IterationMetrics m = trainer_.step();
  const double wall_seconds = wall.seconds();
  ASSERT_EQ(m.guard_trips, 0u) << m.guard_reason;
  EXPECT_GT(m.phases.sample, 0);
  EXPECT_GT(m.phases.local_energy, 0);
  EXPECT_GT(m.phases.gradient, 0);
  EXPECT_GT(m.phases.sr_solve, 0);
  EXPECT_GE(m.phases.allreduce, 0);
  EXPECT_GT(m.phases.optimizer, 0);
  EXPECT_GT(m.phases.checkpoint, 0);
  EXPECT_LE(m.phases.total(), wall_seconds);
}

TEST(PhaseTableSinks, MetricsCsvAndJsonKeyEveryPhase) {
  const std::vector<IterationMetrics> history(1);

  std::istringstream csv(metrics_to_csv(history));
  std::string header;
  std::getline(csv, header);
  std::vector<std::string> columns;
  std::istringstream cells(header);
  for (std::string cell; std::getline(cells, cell, ',');)
    if (cell.ends_with("_seconds")) columns.push_back(cell);
  std::vector<std::string> expected;
  for (const Phase& phase : kPhases)
    expected.push_back(std::string(phase.name) + "_seconds");
  EXPECT_EQ(columns, expected);  // in table order

  const testing::JsonValue json = testing::parse_json(metrics_to_json(history));
  std::set<std::string> phases;
  for (const auto& [key, value] :
       json.array_value.at(0).at("phases").object_value)
    phases.insert(key);
  EXPECT_EQ(phases, table_keys("", ""));
}

TEST_F(PhaseTable, JsonlIterationEventKeysEveryPhase) {
  const std::string path = dir_.path() + "/events.jsonl";
  telemetry::JsonlLogger::instance().open(path);
  trainer_.step();
  telemetry::JsonlLogger::instance().close();

  int iterations = 0;
  for (const std::string& line : read_lines(path)) {
    const testing::JsonValue event = testing::parse_json(line);
    if (event.at("event").string_value != "iteration") continue;
    ++iterations;
    EXPECT_EQ(seconds_keys(event), table_keys("", "_seconds"));
  }
  EXPECT_EQ(iterations, 1);
}

TEST_F(PhaseTable, CrashReportEntryKeysEveryPhase) {
  VQMC_SKIP_WITHOUT_TELEMETRY();
  telemetry::FlightRecorder& recorder = telemetry::FlightRecorder::instance();
  recorder.configure(4);
  recorder.set_crash_dir(dir_.path());
  trainer_.step();
  const std::string path = recorder.dump_crash_report("phase table audit");
  recorder.set_crash_dir("");
  recorder.configure(telemetry::FlightRecorder::kDefaultCapacity);

  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 2u);  // header + one entry
  EXPECT_EQ(seconds_keys(testing::parse_json(lines[1])),
            table_keys("", "_seconds"));
}

TEST_F(PhaseTable, StepRecordsAHistogramPerPhase) {
  VQMC_SKIP_WITHOUT_TELEMETRY();
  telemetry::MetricsRegistry registry;
  const telemetry::ScopedMetricsRegistry scoped(registry);
  trainer_.step();

  std::set<std::string> recorded;
  for (const telemetry::HistogramSnapshot& h : registry.snapshot().histograms)
    if (h.name.starts_with("phase.") && h.count > 0)
      recorded.insert(h.name);
  EXPECT_EQ(recorded, table_keys("phase.", "_seconds"));
}

TEST(PhaseTableSinks, EveryRankCarriesAHistogramPerPhase) {
  VQMC_SKIP_WITHOUT_TELEMETRY();
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(6, 2);
  Made made(6, 8);
  made.initialize(3);
  parallel::DistributedConfig cfg;
  cfg.shape = {1, 2};
  cfg.iterations = 2;
  cfg.mini_batch_size = 8;
  cfg.eval_batch_per_rank = 8;
  cfg.seed = 7;
  const parallel::DistributedResult r =
      parallel::train_distributed(tim, made, cfg);

  std::set<std::string> merged;
  for (const telemetry::HistogramSnapshot& h : r.merged_metrics.histograms)
    if (h.name.starts_with("phase.")) merged.insert(h.name);
  EXPECT_EQ(merged, table_keys("phase.", "_seconds"));
}

}  // namespace
}  // namespace vqmc
