#include "core/trainer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/error.hpp"
#include "core/checkpoint.hpp"
#include "core/factory.hpp"
#include "core/hitting_time.hpp"
#include "hamiltonian/exact.hpp"
#include "hamiltonian/heisenberg.hpp"
#include "hamiltonian/maxcut.hpp"
#include "hamiltonian/transverse_field_ising.hpp"
#include "nn/deep_made.hpp"
#include "nn/made.hpp"
#include "nn/rnn.hpp"
#include "nn/rbm.hpp"
#include "optim/adam.hpp"
#include "optim/sgd.hpp"
#include "sampler/autoregressive_sampler.hpp"
#include "sampler/metropolis_sampler.hpp"
#include "support/forwarding_model.hpp"

namespace vqmc {
namespace {

TEST(Trainer, EnergyDecreasesOnSmallTim) {
  const std::size_t n = 6;
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(n, 1);
  Made made(n, 8);
  made.initialize(2);
  AutoregressiveSampler sampler(made, 3);
  Adam adam(0.02);
  TrainerConfig cfg;
  cfg.iterations = 120;
  cfg.batch_size = 128;
  VqmcTrainer trainer(tim, made, sampler, adam, cfg);
  trainer.run();

  ASSERT_EQ(trainer.history().size(), 120u);
  const Real first = trainer.history().front().energy;
  const Real last = trainer.history().back().energy;
  EXPECT_LT(last, first);
  EXPECT_GT(trainer.training_seconds(), 0.0);
}

TEST(Trainer, MetricsAreWellFormed) {
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(4, 4);
  Made made(4, 5);
  AutoregressiveSampler sampler(made, 5);
  Adam adam;
  TrainerConfig cfg;
  cfg.iterations = 5;
  cfg.batch_size = 32;
  VqmcTrainer trainer(tim, made, sampler, adam, cfg);
  trainer.run();
  double previous_time = 0;
  Real best = std::numeric_limits<Real>::max();
  for (const IterationMetrics& m : trainer.history()) {
    EXPECT_GE(m.std_dev, 0.0);
    EXPECT_GE(m.seconds, previous_time);
    previous_time = m.seconds;
    best = std::min(best, m.best_energy);
    EXPECT_EQ(m.best_energy, best);  // best is monotone non-increasing
  }
  EXPECT_EQ(trainer.history().back().iteration, 4);
}

TEST(Trainer, StepByStepMatchesRun) {
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(4, 6);
  auto run_with = [&](bool stepwise) {
    Made made(4, 5);
    made.initialize(7);
    AutoregressiveSampler sampler(made, 8);
    Adam adam;
    TrainerConfig cfg;
    cfg.iterations = 10;
    cfg.batch_size = 16;
    VqmcTrainer trainer(tim, made, sampler, adam, cfg);
    if (stepwise) {
      for (int i = 0; i < 10; ++i) trainer.step();
    } else {
      trainer.run();
    }
    return std::vector<Real>(made.parameters().begin(),
                             made.parameters().end());
  };
  const std::vector<Real> a = run_with(true);
  const std::vector<Real> b = run_with(false);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(Trainer, SrPathRunsAndConverges) {
  const std::size_t n = 5;
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(n, 9);
  Made made(n, 4);
  made.initialize(10);
  AutoregressiveSampler sampler(made, 11);
  Sgd sgd(0.1);
  TrainerConfig cfg;
  cfg.iterations = 80;
  cfg.batch_size = 96;
  cfg.use_sr = true;
  cfg.sr.regularization = 1e-3;
  VqmcTrainer trainer(tim, made, sampler, sgd, cfg);
  trainer.run();
  EXPECT_LT(trainer.history().back().energy, trainer.history().front().energy);
}

TEST(Trainer, SrFactorGramTrainsLikeTheExplicitGram) {
  // Two identical MADE runs with SR on Max-Cut: one builds its Gram from
  // the layer factors, the other through a forwarding model that keeps the
  // default Gram (the explicit per-sample matrix times its transpose).  The
  // Grams differ by rounding only, far too little to move a draw, and
  // Max-Cut energies depend on the samples alone, so the energies agree
  // exactly.
  const std::size_t n = 24;
  const MaxCut maxcut = MaxCut::paper_instance(n, 61);
  Made factor_made(n, made_default_hidden(n)),
      default_made(n, made_default_hidden(n));
  factor_made.initialize(62);
  default_made.initialize(62);
  vqmc::testing::ForwardingModel default_model(default_made);
  const auto factor_sampler = make_sampler("AUTO", factor_made, 63);
  const auto default_sampler = make_sampler("AUTO", default_made, 63);
  Sgd factor_sgd(0.1), default_sgd(0.1);
  TrainerConfig cfg;
  cfg.iterations = 20;
  cfg.batch_size = 64;
  cfg.use_sr = true;
  VqmcTrainer factor(maxcut, factor_made, *factor_sampler, factor_sgd, cfg);
  VqmcTrainer explicit_gram(maxcut, default_model, *default_sampler,
                            default_sgd, cfg);
  factor.run();
  explicit_gram.run();
  ASSERT_EQ(factor.history().size(), 20u);
  ASSERT_EQ(explicit_gram.history().size(), 20u);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(factor.history()[i].guard_trips, 0u);
    EXPECT_EQ(factor.history()[i].energy, explicit_gram.history()[i].energy)
        << "iteration " << i;
  }
  EXPECT_LT(factor.history().back().energy, factor.history().front().energy);
}

TEST(Trainer, SrStepIsBitwiseIdenticalAtOneAndFourThreads) {
  // The factor Gram's tiles, the Cholesky and every other kernel of an SR
  // step compute each value in a fixed order, whatever the team size.
  const std::size_t n = 20;
  const MaxCut maxcut = MaxCut::paper_instance(n, 71);
  const auto run_with = [&](int threads) {
#ifdef _OPENMP
    omp_set_num_threads(threads);
#else
    (void)threads;
#endif
    Made made(n, made_default_hidden(n));
    made.initialize(72);
    const auto sampler = make_sampler("AUTO", made, 73);
    Sgd sgd(0.1);
    TrainerConfig cfg;
    cfg.iterations = 3;
    cfg.batch_size = 100;
    cfg.use_sr = true;
    VqmcTrainer trainer(maxcut, made, *sampler, sgd, cfg);
    trainer.run();
    const std::span<const Real> params = std::as_const(made).parameters();
    return std::vector<Real>(params.begin(), params.end());
  };
  const std::vector<Real> one = run_with(1);
  const std::vector<Real> four = run_with(4);
#ifdef _OPENMP
  omp_set_num_threads(omp_get_num_procs());
#endif
  ASSERT_EQ(one.size(), four.size());
  for (std::size_t i = 0; i < one.size(); ++i)
    ASSERT_EQ(one[i], four[i]) << "parameter " << i;
}

TEST(Trainer, RunUntilStopsEarly) {
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(4, 12);
  Made made(4, 4);
  AutoregressiveSampler sampler(made, 13);
  Adam adam;
  TrainerConfig cfg;
  cfg.iterations = 100;
  cfg.batch_size = 16;
  VqmcTrainer trainer(tim, made, sampler, adam, cfg);
  trainer.run_until(
      [](const IterationMetrics& m) { return m.iteration >= 4; });
  EXPECT_EQ(trainer.history().size(), 5u);
}

TEST(Trainer, EvaluateReturnsFreshEstimate) {
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(4, 14);
  Made made(4, 4);
  AutoregressiveSampler sampler(made, 15);
  Adam adam;
  TrainerConfig cfg;
  cfg.iterations = 3;
  cfg.batch_size = 16;
  VqmcTrainer trainer(tim, made, sampler, adam, cfg);
  trainer.run();
  Matrix samples;
  const EnergyEstimate est = trainer.evaluate_with_samples(64, samples);
  EXPECT_EQ(samples.rows(), 64u);
  EXPECT_GE(est.std_dev, 0.0);
  // Evaluation must not pollute the training history or timing.
  EXPECT_EQ(trainer.history().size(), 3u);
}

TEST(Trainer, LrScheduleIsAppliedEachIteration) {
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(4, 20);
  Made made(4, 4);
  AutoregressiveSampler sampler(made, 21);
  Sgd sgd(0.1);
  const StepDecaySchedule schedule(2, 0.5);
  TrainerConfig cfg;
  cfg.iterations = 5;
  cfg.batch_size = 8;
  cfg.lr_schedule = &schedule;
  VqmcTrainer trainer(tim, made, sampler, sgd, cfg);
  trainer.run();
  // After 5 steps the last applied multiplier was for iteration 4 -> 0.25.
  EXPECT_DOUBLE_EQ(sgd.learning_rate(), 0.1 * 0.25);
}

TEST(Trainer, GradientClippingBoundsTheUpdate) {
  // With a tiny max_grad_norm the per-step parameter change under plain SGD
  // is bounded by lr * max_grad_norm.
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(5, 22);
  Made made(5, 6);
  made.initialize(23);
  const std::vector<Real> before(made.parameters().begin(),
                                 made.parameters().end());
  AutoregressiveSampler sampler(made, 24);
  Sgd sgd(0.1);
  TrainerConfig cfg;
  cfg.iterations = 1;
  cfg.batch_size = 32;
  cfg.max_grad_norm = 1e-3;
  VqmcTrainer trainer(tim, made, sampler, sgd, cfg);
  trainer.step();
  Real delta_norm2 = 0;
  for (std::size_t i = 0; i < before.size(); ++i) {
    const Real d = made.parameters()[i] - before[i];
    delta_norm2 += d * d;
  }
  EXPECT_LE(std::sqrt(delta_norm2), 0.1 * 1e-3 + 1e-12);
}

TEST(Trainer, NegativeClipRejected) {
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(4, 25);
  Made made(4, 4);
  AutoregressiveSampler sampler(made, 26);
  Adam adam;
  TrainerConfig cfg;
  cfg.max_grad_norm = -1;
  EXPECT_THROW(VqmcTrainer(tim, made, sampler, adam, cfg), Error);
}

TEST(Trainer, WorksWithDeepMadeAndRnnModels) {
  // The trainer is model-agnostic: any AutoregressiveModel slots in.
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(5, 27);
  for (int kind = 0; kind < 2; ++kind) {
    std::unique_ptr<AutoregressiveModel> model;
    if (kind == 0) {
      model = std::make_unique<DeepMade>(5, 6, 2);
    } else {
      model = std::make_unique<RnnWavefunction>(5, 6);
    }
    model->initialize(30 + std::uint64_t(kind));
    AutoregressiveSampler sampler(*model, 31);
    Adam adam(0.05);
    TrainerConfig cfg;
    cfg.iterations = 40;
    cfg.batch_size = 64;
    VqmcTrainer trainer(tim, *model, sampler, adam, cfg);
    trainer.run();
    EXPECT_LT(trainer.history().back().energy,
              trainer.history().front().energy)
        << "model kind " << kind;
  }
}

TEST(Trainer, FlipPathTrainsLikeTheFullForwardPath) {
  // Two identical MADE runs: one computes its local energies through the
  // single-flip ratios, the other through a forwarding model that hides
  // them, so every connected configuration takes a full forward.  The two
  // round differently, never by more than the parity bound, so the
  // trajectories agree far below the energies' own noise.
  const std::size_t n = 16;
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(n, 35);
  Made flip_made(n, made_default_hidden(n)), full_made(n, made_default_hidden(n));
  flip_made.initialize(36);
  full_made.initialize(36);
  vqmc::testing::ForwardingModel full_model(full_made);
  const auto flip_sampler = make_sampler("AUTO", flip_made, 37);
  const auto full_sampler = make_sampler("AUTO", full_made, 37);
  Adam flip_adam(0.01), full_adam(0.01);
  TrainerConfig cfg;
  cfg.iterations = 20;
  cfg.batch_size = 64;
  VqmcTrainer flip(tim, flip_made, *flip_sampler, flip_adam, cfg);
  VqmcTrainer full(tim, full_model, *full_sampler, full_adam, cfg);
  flip.run();
  full.run();
  ASSERT_EQ(flip.history().size(), 20u);
  ASSERT_EQ(full.history().size(), 20u);
  // One flip-ratio call per step, against log psi(x) plus one 1024-row
  // chunk (64 rows x 16 flips) per step.
  EXPECT_EQ(flip.local_energy_engine().forward_passes(), 20u);
  EXPECT_EQ(full.local_energy_engine().forward_passes(), 40u);
  for (std::size_t i = 0; i < 20; ++i) {
    const Real want = full.history()[i].energy;
    EXPECT_NEAR(flip.history()[i].energy, want, 1e-9 * std::abs(want))
        << "iteration " << i;
  }
}

TEST(Trainer, OptimizesHeisenbergWithTwoSiteFlips) {
  // End-to-end through the multi-flip off-diagonal path.
  const XxzHeisenberg h = XxzHeisenberg::chain(6, 0.5, 0.5);
  Made made(6, 8);
  made.initialize(33);
  AutoregressiveSampler sampler(made, 34);
  Adam adam(0.03);
  TrainerConfig cfg;
  cfg.iterations = 120;
  cfg.batch_size = 128;
  VqmcTrainer trainer(h, made, sampler, adam, cfg);
  trainer.run();
  const ExactGroundState exact = exact_ground_state(h);
  const EnergyEstimate est = trainer.evaluate(512);
  EXPECT_GT(est.mean, exact.energy - 0.2);           // variational bound
  EXPECT_LT(est.mean, exact.energy + 0.25 * std::abs(exact.energy));
}

TEST(HittingTime, ReachesTrivialTargetImmediately) {
  const MaxCut h{Graph::bernoulli_symmetrized(10, 16)};
  Made made(10, 6);
  AutoregressiveSampler sampler(made, 17);
  Adam adam;
  TrainerConfig cfg;
  cfg.iterations = 50;
  cfg.batch_size = 32;
  VqmcTrainer trainer(h, made, sampler, adam, cfg);
  const HittingTimeResult r = measure_hitting_time(
      trainer, /*target=*/-1e9,
      [&h](const Matrix&, const EnergyEstimate& est) {
        return h.cut_from_energy(est.mean);
      },
      32);
  EXPECT_TRUE(r.reached);
  EXPECT_EQ(r.iterations, 1);
}

TEST(HittingTime, UnreachableTargetExhaustsBudget) {
  const MaxCut h{Graph::bernoulli_symmetrized(8, 18)};
  Made made(8, 5);
  AutoregressiveSampler sampler(made, 19);
  Adam adam;
  TrainerConfig cfg;
  cfg.iterations = 5;
  cfg.batch_size = 16;
  VqmcTrainer trainer(h, made, sampler, adam, cfg);
  const HittingTimeResult r = measure_hitting_time(
      trainer, /*target=*/1e9,
      [&h](const Matrix&, const EnergyEstimate& est) {
        return h.cut_from_energy(est.mean);
      },
      16);
  EXPECT_FALSE(r.reached);
  EXPECT_EQ(r.iterations, 5);
}

// ---------------------------------------------------------------------------
// Checkpoint/restart determinism (DESIGN.md §5c): a killed-and-resumed run
// must be bit-identical to one that was never interrupted.
// ---------------------------------------------------------------------------

// Each test writes its own base path: under `ctest -j` every TEST runs as
// a separate concurrent process, so a shared path races.
std::string current_ckpt_base() {
  return std::string("/tmp/vqmc_trainer_ckpt_") +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         ".bin";
}
#define kCkptBase current_ckpt_base()

struct CkptCleanup {
  ~CkptCleanup() {
    for (int iter = 0; iter <= 40; ++iter)
      std::remove((std::string(kCkptBase) + ".iter" + std::to_string(iter))
                      .c_str());
    std::remove(kCkptBase.c_str());
  }
};

/// One assembled training stack over the same 6-spin TIM instance.
struct Stack {
  TransverseFieldIsing tim = TransverseFieldIsing::random_dense(6, 21);
  Made made{6, 8};
  AutoregressiveSampler sampler;
  std::unique_ptr<Optimizer> optimizer;
  std::unique_ptr<VqmcTrainer> trainer;

  Stack(const std::string& optimizer_kind, TrainerConfig cfg)
      : sampler((made.initialize(13), made), 17) {
    optimizer = optimizer_kind == "SGD" ? make_sgd(0.1) : make_adam(0.01);
    trainer = std::make_unique<VqmcTrainer>(tim, made, sampler, *optimizer,
                                            cfg);
  }
};

void expect_kill_and_resume_bit_identical(const std::string& optimizer_kind) {
  CkptCleanup cleanup;
  const int total = 20;
  const int kill_at = 10;

  TrainerConfig cfg;
  cfg.iterations = total;
  cfg.batch_size = 32;

  // Reference: uninterrupted run.
  Stack reference(optimizer_kind, cfg);
  reference.trainer->run();

  // Interrupted run: checkpoint every 5 iterations, "kill" the process at
  // iteration `kill_at` (stop and discard the whole stack)...
  TrainerConfig ckpt_cfg = cfg;
  ckpt_cfg.checkpoint_path = kCkptBase;
  ckpt_cfg.checkpoint_every = 5;
  {
    Stack victim(optimizer_kind, ckpt_cfg);
    victim.trainer->run_until([&](const IterationMetrics& m) {
      return m.iteration + 1 >= kill_at;
    });
    ASSERT_EQ(victim.trainer->history().size(), std::size_t(kill_at));
  }

  // ...then resume a *fresh* stack from the checkpoint on disk.
  Stack resumed(optimizer_kind, cfg);
  resumed.trainer->restore(load_training_checkpoint(kCkptBase));
  resumed.trainer->run();

  // Bit-identical parameters...
  for (std::size_t i = 0; i < reference.made.num_parameters(); ++i)
    EXPECT_EQ(resumed.made.parameters()[i], reference.made.parameters()[i])
        << optimizer_kind << " parameter " << i;
  // ...and a bit-identical post-resume energy trajectory.
  ASSERT_EQ(resumed.trainer->history().size(), std::size_t(total - kill_at));
  for (std::size_t k = 0; k < resumed.trainer->history().size(); ++k) {
    const IterationMetrics& ours = resumed.trainer->history()[k];
    const IterationMetrics& theirs =
        reference.trainer->history()[std::size_t(kill_at) + k];
    EXPECT_EQ(ours.iteration, theirs.iteration);
    EXPECT_EQ(ours.energy, theirs.energy) << "iteration " << ours.iteration;
  }
}

TEST(TrainerCheckpoint, KillAndResumeIsBitIdenticalWithSgd) {
  expect_kill_and_resume_bit_identical("SGD");
}

TEST(TrainerCheckpoint, KillAndResumeIsBitIdenticalWithAdam) {
  expect_kill_and_resume_bit_identical("ADAM");
}

TEST(TrainerCheckpoint, PeriodicWritesPruneToKeepLast) {
  CkptCleanup cleanup;
  TrainerConfig cfg;
  cfg.iterations = 20;
  cfg.batch_size = 16;
  cfg.checkpoint_path = kCkptBase;
  cfg.checkpoint_every = 4;
  cfg.checkpoint_keep_last = 2;
  Stack stack("ADAM", cfg);
  stack.trainer->run();
  // Checkpoints landed at iterations 4, 8, 12, 16, 20; only 16 and 20 are
  // retained, and the base path holds the final state.
  EXPECT_EQ(load_training_checkpoint(kCkptBase).iteration, 20);
  EXPECT_EQ(load_training_checkpoint(std::string(kCkptBase) + ".iter16")
                .iteration,
            16);
  std::ifstream pruned(std::string(kCkptBase) + ".iter12");
  EXPECT_FALSE(pruned.good());
}

TEST(TrainerCheckpoint, RestoreRejectsEveryIdentityMismatch) {
  CkptCleanup cleanup;
  TrainerConfig cfg;
  cfg.iterations = 4;
  cfg.batch_size = 16;
  Stack stack("ADAM", cfg);
  stack.trainer->run();
  const TrainingSnapshot good = stack.trainer->snapshot();

  // Each identity field is verified independently on restore.
  {
    TrainingSnapshot bad = good;
    bad.model_name = "RBM";
    EXPECT_THROW(stack.trainer->restore(bad), Error);
  }
  {
    TrainingSnapshot bad = good;
    bad.optimizer_name = "SGD";
    EXPECT_THROW(stack.trainer->restore(bad), Error);
  }
  // The sampler name must match exactly: no older label, spelling or
  // empty name stands in for the running sampler's "AUTO".
  for (const std::string other : {"MCMC", "AUTO-fast", "auto", ""}) {
    TrainingSnapshot bad = good;
    bad.sampler_name = other;
    EXPECT_THROW(stack.trainer->restore(bad), Error) << other;
  }
  {
    TrainingSnapshot bad = good;
    bad.num_spins += 1;
    EXPECT_THROW(stack.trainer->restore(bad), Error);
  }
  {
    TrainingSnapshot bad = good;
    bad.num_parameters += 1;
    EXPECT_THROW(stack.trainer->restore(bad), Error);
  }
  // And the unmutated snapshot restores cleanly.
  EXPECT_NO_THROW(stack.trainer->restore(good));
}

TEST(TrainerCheckpoint, RestoreRejectsTheOlderSerialTrainerStateLayout) {
  // The serial layout before the guard tallies were appended: 8 fields, or
  // 8 + d when field 7 flags a held rollback snapshot.
  TrainerConfig cfg;
  cfg.iterations = 2;
  cfg.batch_size = 16;
  Stack stack("ADAM", cfg);
  stack.trainer->run();
  const TrainingSnapshot good = stack.trainer->snapshot();
  const std::vector<Real> params = good.parameters;

  TrainingSnapshot plain = good;
  plain.trainer_state = {0.01, -7.5, 1.0, 12.5, -7.0, 1.0, 0.0, 0.0};
  EXPECT_THROW(stack.trainer->restore(plain), Error);

  TrainingSnapshot with_rollback = plain;
  with_rollback.trainer_state[7] = 1.0;
  with_rollback.trainer_state.insert(with_rollback.trainer_state.end(),
                                     params.begin(), params.end());
  EXPECT_THROW(stack.trainer->restore(with_rollback), Error);
}

TEST(TrainerCheckpoint, RestoreRejectsCountFieldsNoCountCanHold) {
  // The divergence streak and the guard tallies are converted to integers
  // on restore; a negative, NaN or oversized value must be refused, and
  // the trainer left as it was.
  TrainerConfig cfg;
  cfg.iterations = 2;
  cfg.batch_size = 16;
  Stack stack("ADAM", cfg);
  stack.trainer->run();
  const TrainingSnapshot good = stack.trainer->snapshot();
  const std::vector<Real> before = good.parameters;
  const std::size_t first_tally = 8;  // no rollback snapshot held
  for (const Real bad : {Real(-1), std::numeric_limits<Real>::quiet_NaN(),
                         Real(1e30)}) {
    TrainingSnapshot streak = good;
    streak.trainer_state[6] = bad;
    EXPECT_THROW(stack.trainer->restore(streak), Error);
    TrainingSnapshot tally = good;
    tally.trainer_state[first_tally] = bad;
    EXPECT_THROW(stack.trainer->restore(tally), Error);
  }
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_EQ(stack.made.parameters()[i], before[i]);
  EXPECT_NO_THROW(stack.trainer->restore(good));
}

TEST(TrainerCheckpoint, RestoreRejectsTheOlderDistributedTrainerStateLayout) {
  // The distributed rank layout: [divergence best, have_best, consecutive,
  // trips, bad contributions].
  TrainerConfig cfg;
  cfg.iterations = 2;
  cfg.batch_size = 16;
  Stack stack("ADAM", cfg);
  stack.trainer->run();
  TrainingSnapshot old = stack.trainer->snapshot();
  old.trainer_state = {-7.0, 1.0, 0.0, 2.0, 1.0};
  EXPECT_THROW(stack.trainer->restore(old), Error);
}

/// RBM + persistent MCMC + Adam: a restore touches all three states.
struct McmcStack {
  TransverseFieldIsing tim = TransverseFieldIsing::random_dense(6, 41);
  Rbm rbm{6, 6};
  MetropolisSampler sampler;
  Adam adam{0.01};
  std::unique_ptr<VqmcTrainer> trainer;

  explicit McmcStack(TrainerConfig cfg)
      : sampler((rbm.initialize(42), rbm), sampler_config()) {
    trainer = std::make_unique<VqmcTrainer>(tim, rbm, sampler, adam, cfg);
  }
  static MetropolisConfig sampler_config() {
    MetropolisConfig mc;
    mc.burn_in = 20;
    mc.persistent_chains = true;
    mc.seed = 43;
    return mc;
  }
};

/// Bit patterns of a real vector (NaN fields compare too).
std::vector<std::uint64_t> bits_of(const std::vector<Real>& values) {
  std::vector<std::uint64_t> out;
  for (const Real v : values) out.push_back(std::bit_cast<std::uint64_t>(v));
  return out;
}

/// Snapshot `bad` (taken one step back) is rejected, and the trainer's
/// parameters, iteration, optimizer and sampler states stay bitwise as
/// they were.
void expect_rejected_restore_changes_nothing(McmcStack& stack,
                                             const TrainingSnapshot& bad) {
  const TrainingSnapshot live = stack.trainer->snapshot();
  EXPECT_THROW(stack.trainer->restore(bad), Error);
  const TrainingSnapshot after = stack.trainer->snapshot();
  EXPECT_EQ(after.iteration, live.iteration);
  EXPECT_EQ(bits_of(after.parameters), bits_of(live.parameters));
  EXPECT_EQ(bits_of(after.optimizer_state), bits_of(live.optimizer_state));
  EXPECT_EQ(after.sampler_state, live.sampler_state);
  EXPECT_EQ(bits_of(after.trainer_state), bits_of(live.trainer_state));
}

TEST(TrainerCheckpoint, RejectedOptimizerStateChangesNothing) {
  TrainerConfig cfg;
  cfg.batch_size = 16;
  McmcStack stack(cfg);
  for (int i = 0; i < 4; ++i) stack.trainer->step();
  TrainingSnapshot bad = stack.trainer->snapshot();
  stack.trainer->step();
  bad.optimizer_state[1] = std::numeric_limits<Real>::quiet_NaN();  // steps
  expect_rejected_restore_changes_nothing(stack, bad);
}

TEST(TrainerCheckpoint, RejectedSamplerStateChangesNothing) {
  TrainerConfig cfg;
  cfg.batch_size = 16;
  McmcStack stack(cfg);
  for (int i = 0; i < 4; ++i) stack.trainer->step();
  TrainingSnapshot bad = stack.trainer->snapshot();
  stack.trainer->step();
  bad.sampler_state.pop_back();  // a truncated chain state
  expect_rejected_restore_changes_nothing(stack, bad);
}

}  // namespace
}  // namespace vqmc
