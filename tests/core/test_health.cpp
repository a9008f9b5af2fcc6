#include "common/health.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/trainer.hpp"
#include "hamiltonian/transverse_field_ising.hpp"
#include "nn/made.hpp"
#include "optim/adam.hpp"
#include "optim/sgd.hpp"
#include "sampler/autoregressive_sampler.hpp"
#include "sampler/metropolis_sampler.hpp"
#include "support/broken_gram_model.hpp"

namespace vqmc {
namespace {

constexpr Real kNaN = std::numeric_limits<Real>::quiet_NaN();
constexpr Real kInf = std::numeric_limits<Real>::infinity();

/// Wraps a healthy MADE and injects non-finite values on demand:
///  * `set_inject_log_psi` poisons log-psi (and therefore the local
///    energies) while leaving the conditionals — and thus sampling —
///    healthy, so the trainer trips exactly at its energy guard;
///  * `set_inject_conditionals` poisons the AUTO sampling path instead.
class FaultyModel final : public AutoregressiveModel {
 public:
  FaultyModel(std::size_t n, std::size_t hidden, std::uint64_t seed)
      : inner_(n, hidden) {
    inner_.initialize(seed);
  }

  void set_inject_log_psi(bool on) { inject_log_psi_ = on; }
  void set_inject_conditionals(bool on) { inject_conditionals_ = on; }

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
    if (inject_log_psi_) out[0] = kNaN;
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
    if (inject_conditionals_) out(0, 0) = kNaN;
  }

  [[nodiscard]] std::string name() const override { return "FaultyMADE"; }

  [[nodiscard]] std::unique_ptr<WavefunctionModel> clone() const override {
    return std::make_unique<FaultyModel>(*this);
  }

 private:
  Made inner_;
  bool inject_log_psi_ = false;
  bool inject_conditionals_ = false;
};

std::vector<Real> snapshot_of(const WavefunctionModel& model) {
  return {model.parameters().begin(), model.parameters().end()};
}

TEST(HealthPrimitives, AllFiniteAndCountNonfinite) {
  std::vector<Real> v{1.0, -2.5, 0.0};
  EXPECT_TRUE(health::all_finite(std::span<const Real>(v)));
  EXPECT_EQ(health::count_nonfinite(std::span<const Real>(v)), 0u);
  v[1] = kNaN;
  EXPECT_FALSE(health::all_finite(std::span<const Real>(v)));
  v.push_back(-kInf);
  EXPECT_EQ(health::count_nonfinite(std::span<const Real>(v)), 2u);

  Matrix m(2, 2);
  m.fill(1.0);
  EXPECT_TRUE(health::all_finite(m));
  m(1, 0) = kInf;
  EXPECT_FALSE(health::all_finite(m));
}

TEST(HealthPrimitives, GuardPolicyParseRoundTripsAndRejectsUnknown) {
  for (const health::GuardPolicy p :
       {health::GuardPolicy::Throw, health::GuardPolicy::SkipIteration,
        health::GuardPolicy::RollbackAndBackoff}) {
    EXPECT_EQ(health::parse_guard_policy(health::to_string(p)), p);
  }
  EXPECT_EQ(health::parse_guard_policy("RollbackAndBackoff"),
            health::GuardPolicy::RollbackAndBackoff);
  EXPECT_THROW(health::parse_guard_policy("explode"), Error);
}

TEST(DivergenceDetector, TripsAfterConsecutiveExplosionsOnly) {
  health::GuardConfig cfg;
  cfg.divergence_window = 2;
  cfg.divergence_factor = 1;
  cfg.divergence_offset = 1;
  health::DivergenceDetector detector(cfg);

  EXPECT_FALSE(detector.update(-1.0));  // establishes the running best
  EXPECT_EQ(detector.running_best(), -1.0);
  // Threshold: best + factor * (|best| + offset) = -1 + 2 = 1.
  EXPECT_FALSE(detector.update(10.0));  // first explosion: streak 1
  EXPECT_TRUE(detector.update(10.0));   // second consecutive: trip

  detector.reset_streak();
  EXPECT_FALSE(detector.update(10.0));  // streak restarts after a rollback
  EXPECT_FALSE(detector.update(0.5));   // below threshold clears the streak
  EXPECT_FALSE(detector.update(10.0));
  EXPECT_FALSE(detector.update(kNaN));  // non-finite is its own guard
  EXPECT_EQ(detector.running_best(), -1.0);

  // A window of 0 disables the detector entirely.
  health::DivergenceDetector off{};
  for (int i = 0; i < 50; ++i) EXPECT_FALSE(off.update(i == 0 ? -1.0 : 1e12));
}

TEST(HealthGuards, ThrowPolicyFailsFastOnNonFiniteLocalEnergies) {
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(5, 40);
  FaultyModel model(5, 6, 41);
  AutoregressiveSampler sampler(model, 42);
  Adam adam(0.02);
  TrainerConfig cfg;
  cfg.iterations = 10;
  cfg.batch_size = 32;  // guard policy defaults to Throw
  VqmcTrainer trainer(tim, model, sampler, adam, cfg);
  trainer.step();
  trainer.step();
  model.set_inject_log_psi(true);
  EXPECT_THROW(trainer.step(), Error);
  EXPECT_EQ(trainer.health_counters().guard_trips, 1u);
  EXPECT_EQ(trainer.health_counters().nonfinite_energy, 1u);
}

TEST(HealthGuards, SkipIterationLeavesParametersBitwiseUnchanged) {
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(5, 43);
  FaultyModel model(5, 6, 44);
  AutoregressiveSampler sampler(model, 45);
  Adam adam(0.02);
  TrainerConfig cfg;
  cfg.iterations = 10;
  cfg.batch_size = 32;
  cfg.guard.policy = health::GuardPolicy::SkipIteration;
  VqmcTrainer trainer(tim, model, sampler, adam, cfg);
  trainer.step();
  trainer.step();

  const std::vector<Real> before = snapshot_of(model);
  model.set_inject_log_psi(true);
  const IterationMetrics m = trainer.step();
  model.set_inject_log_psi(false);

  const std::span<const Real> after = model.parameters();
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_EQ(after[i], before[i]) << "parameter " << i;
  EXPECT_TRUE(std::isnan(m.energy));
  EXPECT_EQ(m.guard_trips, 1u);
  EXPECT_NE(m.guard_reason.find("non-finite local energies"),
            std::string::npos);
  EXPECT_EQ(trainer.health_counters().skipped_iterations, 1u);

  trainer.step();  // training continues after the skip
  EXPECT_EQ(trainer.health_counters().guard_trips, 1u);
}

/// An SR trainer over a healthy MADE whose Gram is broken: the energies and
/// the gradient pass their guards, and the SR solve reports a breakdown.
struct BrokenSrRun {
  BrokenSrRun(testing::BrokenGramModel::Fault fault,
              health::GuardPolicy policy)
      : model(made, fault) {
    made.initialize(48);
    TrainerConfig cfg;
    cfg.iterations = 5;
    cfg.batch_size = 32;
    cfg.use_sr = true;
    cfg.guard.policy = policy;
    trainer = std::make_unique<VqmcTrainer>(tim, model, sampler, sgd, cfg);
  }

  TransverseFieldIsing tim = TransverseFieldIsing::random_dense(5, 47);
  Made made{5, 6};
  testing::BrokenGramModel model;
  AutoregressiveSampler sampler{made, 49};
  Sgd sgd{0.05};
  std::unique_ptr<VqmcTrainer> trainer;
};

constexpr testing::BrokenGramModel::Fault kGramFaults[] = {
    testing::BrokenGramModel::Fault::kNaN,
    testing::BrokenGramModel::Fault::kIndefinite};

TEST(HealthGuards, SrBreakdownThrowsUnderThrowPolicy) {
  for (const auto fault : kGramFaults) {
    BrokenSrRun run(fault, health::GuardPolicy::Throw);
    try {
      run.trainer->step();
      ADD_FAILURE() << "an SR breakdown must throw under Throw";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("SR breakdown"), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(run.trainer->health_counters().sr_breakdowns, 1u);
    EXPECT_EQ(run.trainer->health_counters().guard_trips, 1u);
  }
}

TEST(HealthGuards, SrBreakdownUnderSkipLeavesParametersBitwiseUnchanged) {
  for (const auto fault : kGramFaults) {
    BrokenSrRun run(fault, health::GuardPolicy::SkipIteration);
    const std::vector<Real> before = snapshot_of(run.made);
    const IterationMetrics m = run.trainer->step();
    const std::span<const Real> after = std::as_const(run.made).parameters();
    ASSERT_EQ(after.size(), before.size());
    for (std::size_t i = 0; i < before.size(); ++i)
      ASSERT_EQ(after[i], before[i]) << "parameter " << i;
    EXPECT_NE(m.guard_reason.find("SR breakdown"), std::string::npos)
        << m.guard_reason;
    const health::HealthCounters& counters = run.trainer->health_counters();
    EXPECT_EQ(counters.sr_breakdowns, 1u);
    EXPECT_EQ(counters.skipped_iterations, 1u);
    EXPECT_EQ(counters.guard_trips, 1u);
  }
}

TEST(HealthGuards, RollbackRestoresSnapshotAndShrinksLearningRate) {
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(5, 46);
  FaultyModel model(5, 6, 47);
  AutoregressiveSampler sampler(model, 48);
  Sgd sgd(0.1);
  TrainerConfig cfg;
  cfg.iterations = 10;
  cfg.batch_size = 32;
  cfg.guard.policy = health::GuardPolicy::RollbackAndBackoff;
  VqmcTrainer trainer(tim, model, sampler, sgd, cfg);
  trainer.step();
  trainer.step();

  // The parameters now current were validated (finite energies) by the next
  // healthy step, which snapshots them before updating.
  const std::vector<Real> validated = snapshot_of(model);
  trainer.step();
  const std::vector<Real> advanced = snapshot_of(model);
  bool moved = false;
  for (std::size_t i = 0; i < validated.size(); ++i)
    moved = moved || advanced[i] != validated[i];
  ASSERT_TRUE(moved);  // the healthy step really changed the parameters

  model.set_inject_log_psi(true);
  trainer.step();  // trips: restore the snapshot, halve the learning rate
  model.set_inject_log_psi(false);

  const std::span<const Real> after = model.parameters();
  for (std::size_t i = 0; i < validated.size(); ++i)
    EXPECT_EQ(after[i], validated[i]) << "parameter " << i;
  EXPECT_DOUBLE_EQ(sgd.learning_rate(), 0.05);
  EXPECT_EQ(trainer.health_counters().rollbacks, 1u);
}

TEST(HealthGuards, IntermittentNaNRunCompletesUnderRollback) {
  // Acceptance criterion: a training run with injected NaN local energies
  // completes every iteration with finite parameters under
  // RollbackAndBackoff, while the same run fails fast under Throw.
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(6, 49);
  const auto run = [&tim](health::GuardPolicy policy) {
    FaultyModel model(6, 6, 50);
    AutoregressiveSampler sampler(model, 51);
    Adam adam(0.02);
    TrainerConfig cfg;
    cfg.iterations = 30;
    cfg.batch_size = 32;
    cfg.guard.policy = policy;
    VqmcTrainer trainer(tim, model, sampler, adam, cfg);
    for (int i = 0; i < cfg.iterations; ++i) {
      model.set_inject_log_psi(i % 3 == 2);
      trainer.step();
    }
    EXPECT_EQ(trainer.history().size(), 30u);
    EXPECT_TRUE(health::all_finite(model.parameters()));
    const IterationMetrics& last = trainer.history().back();
    EXPECT_GT(last.guard_trips, 0u);
    EXPECT_EQ(last.guard_trips, trainer.health_counters().guard_trips);
    EXPECT_EQ(trainer.health_counters().rollbacks,
              trainer.health_counters().guard_trips);
  };
  run(health::GuardPolicy::RollbackAndBackoff);
  EXPECT_THROW(run(health::GuardPolicy::Throw), Error);
}

TEST(HealthGuards, ResumedRunKeepsTheGuardTally) {
  // A trip before the checkpoint must survive the kill: the resumed run's
  // guard_trips and health counters continue from the checkpointed tally,
  // exactly like the uninterrupted run's.
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(5, 59);
  const std::string path = "/tmp/vqmc_health_resume_tally.bin";
  const int total = 10;
  const int kill_at = 6;
  const auto inject_at = [](int iteration) {
    return iteration == 2 || iteration == 7;
  };
  const auto make_config = [&](bool checkpoint) {
    TrainerConfig cfg;
    cfg.iterations = total;
    cfg.batch_size = 16;
    cfg.guard.policy = health::GuardPolicy::SkipIteration;
    if (checkpoint) {
      cfg.checkpoint_path = path;
      cfg.checkpoint_every = 5;
      cfg.checkpoint_keep_last = 1;
    }
    return cfg;
  };
  const auto train = [&](VqmcTrainer& trainer, FaultyModel& model, int until) {
    while (trainer.iteration() < until) {
      model.set_inject_log_psi(inject_at(trainer.iteration()));
      trainer.step();
    }
  };

  FaultyModel ref_model(5, 6, 60);
  AutoregressiveSampler ref_sampler(ref_model, 61);
  Adam ref_adam(0.02);
  VqmcTrainer reference(tim, ref_model, ref_sampler, ref_adam,
                        make_config(false));
  train(reference, ref_model, total);
  ASSERT_EQ(reference.health_counters().guard_trips, 2u);

  {
    FaultyModel model(5, 6, 60);
    AutoregressiveSampler sampler(model, 61);
    Adam adam(0.02);
    VqmcTrainer victim(tim, model, sampler, adam, make_config(true));
    train(victim, model, kill_at);  // checkpoint at 5 holds one trip
  }

  FaultyModel model(5, 6, 60);
  AutoregressiveSampler sampler(model, 61);
  Adam adam(0.02);
  VqmcTrainer resumed(tim, model, sampler, adam, make_config(false));
  resumed.restore(load_training_checkpoint(path));
  ASSERT_EQ(resumed.iteration(), 5);
  train(resumed, model, total);

  for (const IterationMetrics& m : resumed.history()) {
    const IterationMetrics& want =
        reference.history()[std::size_t(m.iteration)];
    EXPECT_EQ(m.guard_trips, want.guard_trips) << "iteration " << m.iteration;
    if (std::isnan(want.energy))
      EXPECT_TRUE(std::isnan(m.energy)) << "iteration " << m.iteration;
    else
      EXPECT_EQ(m.energy, want.energy) << "iteration " << m.iteration;
  }
  const health::HealthCounters& got = resumed.health_counters();
  const health::HealthCounters& want = reference.health_counters();
  EXPECT_EQ(got.guard_trips, want.guard_trips);
  EXPECT_EQ(got.nonfinite_energy, want.nonfinite_energy);
  EXPECT_EQ(got.skipped_iterations, want.skipped_iterations);
  std::remove(path.c_str());
  std::remove((path + ".iter5").c_str());
}

TEST(HealthGuards, InvalidBackoffFactorRejected) {
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(4, 52);
  FaultyModel model(4, 4, 53);
  AutoregressiveSampler sampler(model, 54);
  Adam adam;
  TrainerConfig cfg;
  cfg.guard.backoff_factor = 0;
  EXPECT_THROW(VqmcTrainer(tim, model, sampler, adam, cfg), Error);
  cfg.guard.backoff_factor = 1.5;
  EXPECT_THROW(VqmcTrainer(tim, model, sampler, adam, cfg), Error);
}

TEST(SamplerGuards, AutoregressiveSamplerClampsNonFiniteConditionals) {
  FaultyModel model(6, 5, 55);
  model.set_inject_conditionals(true);
  AutoregressiveSampler sampler(model, 56);
  Matrix out(16, 6);
  sampler.sample(out);
  EXPECT_GT(sampler.statistics().nonfinite_rejections, 0u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const Real v = out.data()[i];
    EXPECT_TRUE(v == Real(0) || v == Real(1));
  }
}

TEST(SamplerGuards, MetropolisSamplerRejectsNonFiniteLogPsiProposals) {
  FaultyModel model(6, 5, 57);
  model.set_inject_log_psi(true);  // poisons chain 0's proposals every step
  MetropolisConfig mc;
  mc.num_chains = 2;
  mc.burn_in = 10;
  mc.seed = 58;
  MetropolisSampler sampler(model, mc);
  Matrix out(8, 6);
  sampler.sample(out);
  EXPECT_GT(sampler.statistics().nonfinite_rejections, 0u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const Real v = out.data()[i];
    EXPECT_TRUE(v == Real(0) || v == Real(1));
  }
}

}  // namespace
}  // namespace vqmc
