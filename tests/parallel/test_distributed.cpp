#include "parallel/distributed_trainer.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <string>

#include "core/trainer.hpp"
#include "hamiltonian/transverse_field_ising.hpp"
#include "nn/made.hpp"
#include "optim/adam.hpp"
#include "parallel/communicator.hpp"
#include "parallel/thread_communicator.hpp"
#include "rng/splitmix.hpp"
#include "sampler/autoregressive_sampler.hpp"
#include "support/telemetry_gate.hpp"

namespace vqmc::parallel {
namespace {

DistributedConfig small_config(int ranks, int iterations = 15,
                               std::size_t mbs = 8) {
  DistributedConfig cfg;
  cfg.shape = {1, ranks};
  cfg.iterations = iterations;
  cfg.mini_batch_size = mbs;
  cfg.eval_batch_per_rank = 32;
  cfg.seed = 7;
  return cfg;
}

TEST(DistributedTrainer, ReplicasStayBitIdentical) {
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(6, 1);
  Made made(6, 8);
  made.initialize(2);
  const DistributedResult r =
      train_distributed(tim, made, small_config(4));
  EXPECT_TRUE(r.replicas_identical);
  EXPECT_EQ(r.energy_history.size(), 15u);
  EXPECT_FALSE(r.final_parameters.empty());
}

TEST(DistributedTrainer, SingleRankMatchesSerialTrainerExactly) {
  // With L = 1 and the same seed derivation, the distributed path must
  // reproduce the serial trainer's parameter trajectory bit-for-bit.
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(5, 3);
  const int iterations = 10;
  const std::size_t batch = 16;

  Made proto(5, 6);
  proto.initialize(4);
  DistributedConfig cfg = small_config(1, iterations, batch);
  const DistributedResult dist = train_distributed(tim, proto, cfg);

  // Serial reference with the identical RNG stream and update rule.
  Made serial(5, 6);
  serial.initialize(4);
  const std::uint64_t rank_seed = cfg.seed ^ rng::splitmix64_once(1);
  AutoregressiveSampler sampler(serial, rank_seed);
  Adam adam(0.01);
  TrainerConfig tcfg;
  tcfg.iterations = iterations;
  tcfg.batch_size = batch;
  VqmcTrainer trainer(tim, serial, sampler, adam, tcfg);
  trainer.run();

  ASSERT_EQ(dist.final_parameters.size(), serial.num_parameters());
  for (std::size_t i = 0; i < serial.num_parameters(); ++i)
    EXPECT_EQ(dist.final_parameters[i], serial.parameters()[i])
        << "parameter " << i;
}

TEST(DistributedTrainer, MergedGaugesTakeTheMaxAcrossRanksNotTheSum) {
  VQMC_SKIP_WITHOUT_TELEMETRY();
  // Regression for the cross-rank gauge merge: gauges are point-in-time
  // values and must ride the trailing allreduce_max, never the additive
  // payload — summing them made a 4-rank run report trainer.iteration as
  // 4x the true iteration (and comm.live_ranks as ranks^2).
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(6, 2);
  Made made(6, 8);
  made.initialize(3);
  const int iterations = 8;
  const int ranks = 4;
  const DistributedResult r =
      train_distributed(tim, made, small_config(ranks, iterations));

  const telemetry::GaugeSnapshot* iter_gauge =
      r.merged_metrics.find_gauge("trainer.iteration");
  ASSERT_NE(iter_gauge, nullptr);
  EXPECT_DOUBLE_EQ(iter_gauge->value, double(iterations - 1));

  const telemetry::GaugeSnapshot* live_gauge =
      r.merged_metrics.find_gauge("comm.live_ranks");
  ASSERT_NE(live_gauge, nullptr);
  EXPECT_DOUBLE_EQ(live_gauge->value, double(ranks));

  // Counters still sum: every rank contributes its own iteration count.
  const telemetry::CounterSnapshot* iters =
      r.merged_metrics.find_counter("trainer.iterations");
  ASSERT_NE(iters, nullptr);
  EXPECT_EQ(iters->value, std::uint64_t(ranks) * iterations);
  // So do the local-energy engine's: each rank's training batches and its
  // final evaluation batch, and at most as many distinct rows.
  const telemetry::CounterSnapshot* rows =
      r.merged_metrics.find_counter("local_energy.rows");
  const telemetry::CounterSnapshot* distinct =
      r.merged_metrics.find_counter("local_energy.distinct_rows");
  ASSERT_NE(rows, nullptr);
  ASSERT_NE(distinct, nullptr);
  EXPECT_EQ(rows->value, std::uint64_t(ranks) * (iterations * 8 + 32));
  EXPECT_GT(distinct->value, 0u);
  EXPECT_LE(distinct->value, rows->value);
}

TEST(DistributedTrainer, EnergyDecreasesWithTraining) {
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(6, 5);
  Made made(6, 8);
  made.initialize(6);
  DistributedConfig cfg = small_config(2, 60, 32);
  const DistributedResult r = train_distributed(tim, made, cfg);
  EXPECT_LT(r.energy_history.back(), r.energy_history.front());
  EXPECT_LT(r.converged_energy, r.energy_history.front());
  EXPECT_GE(r.converged_std, 0.0);
}

TEST(DistributedTrainer, MoreRanksMeansLargerEffectiveBatch) {
  // Figure 4's mechanism: at fixed mbs, more devices -> bigger effective
  // batch -> at least as good converged energy (allow noise).
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(8, 7);
  Made proto(8, 10);
  proto.initialize(8);

  DistributedConfig small = small_config(1, 50, 4);
  DistributedConfig large = small_config(6, 50, 4);
  const DistributedResult r_small = train_distributed(tim, proto, small);
  const DistributedResult r_large = train_distributed(tim, proto, large);
  // Not a strict inequality test (stochastic); assert the large-batch run
  // is not dramatically worse.
  EXPECT_LT(r_large.converged_energy,
            r_small.converged_energy + 0.5 * std::abs(r_small.converged_energy));
}

TEST(DistributedTrainer, NodeTopologyDoesNotChangeResults) {
  // 1x4 and 2x2 have the same total rank count; the math (and with our
  // deterministic collectives, the bits) must agree.
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(5, 9);
  Made proto(5, 6);
  proto.initialize(10);
  DistributedConfig flat = small_config(4, 8, 4);
  flat.shape = {1, 4};
  DistributedConfig square = small_config(4, 8, 4);
  square.shape = {2, 2};
  const DistributedResult a = train_distributed(tim, proto, flat);
  const DistributedResult b = train_distributed(tim, proto, square);
  ASSERT_EQ(a.final_parameters.size(), b.final_parameters.size());
  for (std::size_t i = 0; i < a.final_parameters.size(); ++i)
    EXPECT_EQ(a.final_parameters[i], b.final_parameters[i]);
}

TEST(DistributedTrainer, ModeledTimeIsPopulatedForMade) {
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(5, 11);
  Made proto(5, 6);
  const DistributedResult r = train_distributed(tim, proto, small_config(2, 3, 4));
  EXPECT_GT(r.modeled_seconds, 0.0);
  EXPECT_GT(r.max_rank_busy_seconds, 0.0);
}

TEST(DistributedTrainer, SgdOptimizerOptionWorks) {
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(5, 12);
  Made proto(5, 6);
  proto.initialize(13);
  DistributedConfig cfg = small_config(2, 10, 8);
  cfg.optimizer = "SGD";
  const DistributedResult r = train_distributed(tim, proto, cfg);
  EXPECT_TRUE(r.replicas_identical);
}

TEST(DistributedTrainer, RunsAreBitReproducible) {
  // Two runs with identical configuration must agree bit-for-bit: per-rank
  // RNG streams are seed-derived and the collectives fold deterministically.
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(5, 15);
  Made proto(5, 6);
  proto.initialize(16);
  const DistributedConfig cfg = small_config(3, 12, 8);
  const DistributedResult a = train_distributed(tim, proto, cfg);
  const DistributedResult b = train_distributed(tim, proto, cfg);
  ASSERT_EQ(a.final_parameters.size(), b.final_parameters.size());
  for (std::size_t i = 0; i < a.final_parameters.size(); ++i)
    EXPECT_EQ(a.final_parameters[i], b.final_parameters[i]);
  ASSERT_EQ(a.energy_history.size(), b.energy_history.size());
  for (std::size_t i = 0; i < a.energy_history.size(); ++i)
    EXPECT_EQ(a.energy_history[i], b.energy_history[i]);
}

TEST(DistributedTrainer, DifferentSeedsGiveDifferentTrajectories) {
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(5, 17);
  Made proto(5, 6);
  proto.initialize(18);
  DistributedConfig a_cfg = small_config(2, 6, 8);
  DistributedConfig b_cfg = a_cfg;
  b_cfg.seed = a_cfg.seed + 1;
  const DistributedResult a = train_distributed(tim, proto, a_cfg);
  const DistributedResult b = train_distributed(tim, proto, b_cfg);
  bool any_different = false;
  for (std::size_t i = 0; i < a.final_parameters.size(); ++i)
    any_different |= a.final_parameters[i] != b.final_parameters[i];
  EXPECT_TRUE(any_different);
}

TEST(DistributedTrainer, InvalidConfigRejected) {
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(4, 14);
  Made proto(4, 4);
  DistributedConfig cfg = small_config(1);
  cfg.mini_batch_size = 0;
  EXPECT_THROW(train_distributed(tim, proto, cfg), Error);
}

TEST(DistributedTrainer, UnknownOptimizerRejectedWithOffendingName) {
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(4, 19);
  Made proto(4, 4);
  DistributedConfig cfg = small_config(2, 2, 4);
  cfg.optimizer = "RMSPROP";
  try {
    train_distributed(tim, proto, cfg);
    FAIL() << "unknown optimizer must be rejected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("RMSPROP"), std::string::npos);
  }
}

TEST(DistributedTrainer, SrOptimizerRejectedWithPointerToSerialTrainer) {
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(4, 19);
  Made proto(4, 4);
  DistributedConfig cfg = small_config(2, 2, 4);
  cfg.optimizer = "SGD+SR";
  try {
    train_distributed(tim, proto, cfg);
    FAIL() << "SR optimizers must be rejected, not silently remapped";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("SGD+SR"), std::string::npos);
    EXPECT_NE(what.find("serial"), std::string::npos);
  }
}

/// Cloneable model whose FIRST clone (i.e. exactly one of the per-rank
/// replicas) permanently returns a NaN log-psi, so one rank feeds bad local
/// energies into every iteration while sampling stays healthy everywhere.
class OneBadCloneModel final : public AutoregressiveModel {
 public:
  OneBadCloneModel(std::size_t n, std::size_t hidden, std::uint64_t seed)
      : inner_(n, hidden), clones_(std::make_shared<std::atomic<int>>(0)) {
    inner_.initialize(seed);
  }

  [[nodiscard]] std::size_t num_spins() const override {
    return inner_.num_spins();
  }
  [[nodiscard]] std::size_t num_parameters() const override {
    return inner_.num_parameters();
  }
  [[nodiscard]] std::span<Real> parameters() override {
    return inner_.parameters();
  }
  [[nodiscard]] std::span<const Real> parameters() const override {
    return inner_.parameters();
  }
  void initialize(std::uint64_t seed) override { inner_.initialize(seed); }
  void log_psi_ws(const Matrix& batch, std::span<Real> out,
                  Workspace* ws) const override {
    inner_.log_psi_ws(batch, out, ws);
    if (faulty_) out[0] = std::numeric_limits<Real>::quiet_NaN();
  }
  void accumulate_log_psi_gradient_ws(const Matrix& batch,
                                      std::span<const Real> coeff,
                                      std::span<Real> grad,
                                      Workspace* ws) const override {
    inner_.accumulate_log_psi_gradient_ws(batch, coeff, grad, ws);
  }
  void log_psi_gradient_per_sample_ws(const Matrix& batch, Matrix& out,
                                      Workspace* ws) const override {
    inner_.log_psi_gradient_per_sample_ws(batch, out, ws);
  }
  void conditionals(const Matrix& batch, Matrix& out,
                    Workspace* ws) const override {
    inner_.conditionals(batch, out, ws);
  }
  [[nodiscard]] std::string name() const override { return "OneBadClone"; }
  [[nodiscard]] std::unique_ptr<WavefunctionModel> clone() const override {
    auto copy = std::make_unique<OneBadCloneModel>(*this);
    copy->faulty_ = clones_->fetch_add(1) == 0;
    return copy;
  }

 private:
  Made inner_;
  std::shared_ptr<std::atomic<int>> clones_;
  bool faulty_ = false;
};

TEST(DistributedTrainer, OneBadRankIsDetectedCollectivelyUnderSkip) {
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(5, 21);
  OneBadCloneModel proto(5, 6, 22);
  DistributedConfig cfg = small_config(3, 8, 8);
  cfg.guard.policy = health::GuardPolicy::SkipIteration;
  const DistributedResult r = train_distributed(tim, proto, cfg);

  // Every iteration trips (the fault is permanent), every rank takes the
  // same decision, and the replicas stay bit-identical through recovery.
  EXPECT_TRUE(r.replicas_identical);
  EXPECT_EQ(r.guard_trips, 8u);
  EXPECT_NE(r.last_trip_reason.find("non-finite"), std::string::npos);

  // The per-rank tally attributes every bad contribution to a single rank:
  // 8 training iterations plus the final evaluation.
  std::uint64_t total = 0;
  int bad_ranks = 0;
  for (const std::uint64_t c : r.guard_trips_per_rank) {
    total += c;
    bad_ranks += c > 0 ? 1 : 0;
  }
  EXPECT_EQ(bad_ranks, 1);
  EXPECT_EQ(total, 9u);

  // The sick rank is excluded from the global estimates, not averaged in.
  EXPECT_TRUE(std::isfinite(r.converged_energy));
  for (const Real e : r.energy_history) EXPECT_TRUE(std::isfinite(e));
}

TEST(DistributedTrainer, OneBadRankUnderThrowFailsFast) {
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(5, 21);
  OneBadCloneModel proto(5, 6, 22);
  DistributedConfig cfg = small_config(3, 8, 8);  // guard defaults to Throw
  EXPECT_THROW(train_distributed(tim, proto, cfg), Error);
}

/// MADE whose log-psi is NaN while the shared `poison` flag is set — in the
/// original and in every clone — so a test script that flips the flag per
/// iteration faults the serial trainer and a distributed replica alike.
class ScriptedNanModel final : public AutoregressiveModel {
 public:
  ScriptedNanModel(std::size_t n, std::size_t hidden, std::uint64_t seed,
                   std::shared_ptr<bool> poison)
      : inner_(n, hidden), poison_(std::move(poison)) {
    inner_.initialize(seed);
  }

  [[nodiscard]] std::size_t num_spins() const override {
    return inner_.num_spins();
  }
  [[nodiscard]] std::size_t num_parameters() const override {
    return inner_.num_parameters();
  }
  [[nodiscard]] std::span<Real> parameters() override {
    return inner_.parameters();
  }
  [[nodiscard]] std::span<const Real> parameters() const override {
    return inner_.parameters();
  }
  void initialize(std::uint64_t seed) override { inner_.initialize(seed); }
  void log_psi_ws(const Matrix& batch, std::span<Real> out,
                  Workspace* ws) const override {
    inner_.log_psi_ws(batch, out, ws);
    if (*poison_) out[0] = std::numeric_limits<Real>::quiet_NaN();
  }
  void accumulate_log_psi_gradient_ws(const Matrix& batch,
                                      std::span<const Real> coeff,
                                      std::span<Real> grad,
                                      Workspace* ws) const override {
    inner_.accumulate_log_psi_gradient_ws(batch, coeff, grad, ws);
  }
  void log_psi_gradient_per_sample_ws(const Matrix& batch, Matrix& out,
                                      Workspace* ws) const override {
    inner_.log_psi_gradient_per_sample_ws(batch, out, ws);
  }
  void conditionals(const Matrix& batch, Matrix& out,
                    Workspace* ws) const override {
    inner_.conditionals(batch, out, ws);
  }
  [[nodiscard]] std::string name() const override { return "ScriptedNan"; }
  [[nodiscard]] std::unique_ptr<WavefunctionModel> clone() const override {
    return std::make_unique<ScriptedNanModel>(*this);
  }

 private:
  Made inner_;
  std::shared_ptr<bool> poison_;
};

/// The guard path through one step: a 1-rank train_distributed_on over a
/// SelfCommunicator and the serial trainer see NaN local energies on the
/// same iterations and must trip, recover and train identically.
void expect_guard_path_parity(health::GuardPolicy policy) {
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(5, 23);
  const int iterations = 12;
  const std::size_t batch = 16;
  const auto poisoned = [](long long iteration) {
    return iteration == 3 || iteration == 4 || iteration == 9;
  };
  const auto poison = std::make_shared<bool>(false);

  ScriptedNanModel proto(5, 6, 24, poison);
  DistributedConfig cfg = small_config(1, iterations, batch);
  cfg.guard.policy = policy;
  SelfCommunicator self;
  const DistributedResult dist = train_distributed_on(
      tim, proto, cfg, self, {},
      [&](long long iteration) { *poison = poisoned(iteration); });

  ScriptedNanModel serial(5, 6, 24, poison);
  AutoregressiveSampler sampler(serial, cfg.seed ^ rng::splitmix64_once(1));
  Adam adam(0.01);
  TrainerConfig tcfg;
  tcfg.iterations = iterations;
  tcfg.batch_size = batch;
  tcfg.guard.policy = policy;
  VqmcTrainer trainer(tim, serial, sampler, adam, tcfg);
  while (trainer.iteration() < iterations) {
    *poison = poisoned(trainer.iteration());
    trainer.step();
  }

  EXPECT_EQ(trainer.health_counters().guard_trips, 3u);
  EXPECT_EQ(dist.guard_trips, trainer.health_counters().guard_trips);
  ASSERT_EQ(dist.energy_history.size(), trainer.history().size());
  for (std::size_t i = 0; i < dist.energy_history.size(); ++i) {
    const Real want = trainer.history()[i].energy;
    if (std::isnan(want))
      EXPECT_TRUE(std::isnan(dist.energy_history[i])) << "iteration " << i;
    else
      EXPECT_EQ(dist.energy_history[i], want) << "iteration " << i;
  }
  ASSERT_EQ(dist.final_parameters.size(), serial.num_parameters());
  for (std::size_t i = 0; i < serial.num_parameters(); ++i)
    EXPECT_EQ(dist.final_parameters[i], serial.parameters()[i])
        << "parameter " << i;
}

TEST(DistributedTrainer, TrainerRejectsSrOnMoreThanOneRank) {
  // The SR solve is not distributed: a trainer built over a 2-rank
  // endpoint with use_sr must refuse at construction, before any
  // collective, on every rank.
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(4, 25);
  std::atomic<int> rejected{0};
  run_thread_group(2, [&](Communicator& comm) {
    Made made(4, 4);
    made.initialize(26);
    AutoregressiveSampler sampler(made, 27);
    Adam adam(0.01);
    TrainerConfig tcfg;
    tcfg.batch_size = 8;
    tcfg.use_sr = true;
    try {
      VqmcTrainer trainer(tim, made, sampler, adam, tcfg, comm);
    } catch (const Error&) {
      ++rejected;
    }
  });
  EXPECT_EQ(rejected.load(), 2);
}

TEST(DistributedTrainer, SingleRankGuardPathMatchesSerialUnderSkip) {
  expect_guard_path_parity(health::GuardPolicy::SkipIteration);
}

TEST(DistributedTrainer, SingleRankGuardPathMatchesSerialUnderRollback) {
  expect_guard_path_parity(health::GuardPolicy::RollbackAndBackoff);
}

}  // namespace
}  // namespace vqmc::parallel
