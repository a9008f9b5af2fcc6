// train_distributed_on (single-rank body on an arbitrary communicator) and
// checkpoint/resume: the socket-backed path must reproduce the thread-backed
// path bit-for-bit, and a resumed run must replay the tail of the original
// trajectory bit-identically.

#include <gtest/gtest.h>

#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/trainer.hpp"
#include "hamiltonian/transverse_field_ising.hpp"
#include "nn/made.hpp"
#include "optim/adam.hpp"
#include "parallel/distributed_trainer.hpp"
#include "parallel/socket_communicator.hpp"
#include "parallel/thread_communicator.hpp"
#include "rng/splitmix.hpp"
#include "sampler/autoregressive_sampler.hpp"

namespace vqmc::parallel {
namespace {

DistributedConfig resume_config(int ranks, int iterations = 12) {
  DistributedConfig cfg;
  cfg.shape = {1, ranks};
  cfg.iterations = iterations;
  cfg.mini_batch_size = 6;
  cfg.eval_batch_per_rank = 16;
  cfg.seed = 7;
  return cfg;
}

void remove_rank_checkpoints(const std::string& base, int ranks) {
  for (int r = 0; r < ranks; ++r) {
    const std::string rank_base = base + ".rank" + std::to_string(r);
    std::remove(rank_base.c_str());
    for (int iter = 0; iter < 64; ++iter)
      std::remove((rank_base + ".iter" + std::to_string(iter)).c_str());
  }
}

TEST(TrainDistributedOn, SocketBackedRunMatchesThreadBackedBitwise) {
  // Same problem, same config: the flat socket star folds contributions in
  // rank order exactly like the thread backend, so the two backends must
  // produce bit-identical trajectories and final parameters.
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(6, 1);
  Made made(6, 8);
  made.initialize(2);
  const DistributedConfig cfg = resume_config(3);

  const DistributedResult threads = train_distributed(tim, made, cfg);

  std::mutex mutex;
  DistributedResult sockets;
  run_socket_group(3, [&](Communicator& comm) {
    const DistributedResult mine =
        train_distributed_on(tim, made, cfg, comm);
    if (comm.rank() == 0) {
      const std::lock_guard<std::mutex> lock(mutex);
      sockets = mine;
    }
  });

  ASSERT_EQ(sockets.energy_history.size(), threads.energy_history.size());
  for (std::size_t i = 0; i < threads.energy_history.size(); ++i)
    EXPECT_EQ(sockets.energy_history[i], threads.energy_history[i])
        << "iteration " << i;
  ASSERT_EQ(sockets.final_parameters.size(), threads.final_parameters.size());
  for (std::size_t i = 0; i < threads.final_parameters.size(); ++i)
    EXPECT_EQ(sockets.final_parameters[i], threads.final_parameters[i]);
  EXPECT_EQ(sockets.converged_energy, threads.converged_energy);
  EXPECT_TRUE(sockets.replicas_identical);
  EXPECT_EQ(sockets.final_live_ranks, 3);
}

TEST(TrainDistributedOn, GathersPerRankVectorsThroughTheCommunicator) {
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(5, 2);
  Made made(5, 6);
  made.initialize(3);
  const DistributedConfig cfg = resume_config(2, 8);

  run_socket_group(2, [&](Communicator& comm) {
    const DistributedResult mine = train_distributed_on(tim, made, cfg, comm);
    // Per-rank vectors are gathered, so BOTH ranks hold the full picture.
    ASSERT_EQ(mine.allreduce_wait_seconds_per_rank.size(), 2u);
    ASSERT_EQ(mine.guard_trips_per_rank.size(), 2u);
    EXPECT_GT(mine.allreduce_wait_seconds_per_rank[0], 0.0);
    EXPECT_GT(mine.allreduce_wait_seconds_per_rank[1], 0.0);
    EXPECT_GT(mine.max_rank_busy_seconds, 0.0);
  });
}

TEST(TrainDistributedOn, RejectsShapeCommunicatorMismatch) {
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(4, 1);
  Made made(4, 4);
  made.initialize(1);
  const DistributedConfig cfg = resume_config(3);  // 3 ranks, world of 2
  run_socket_group(2, [&](Communicator& comm) {
    EXPECT_THROW((void)train_distributed_on(tim, made, cfg, comm), Error);
  });
}

TEST(DistributedCheckpoint, ResumeReplaysTheTailBitIdentically) {
  const std::string base = "/tmp/vqmc_dist_resume_test";
  const int ranks = 2;
  remove_rank_checkpoints(base, ranks);

  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(6, 1);
  Made made(6, 8);
  made.initialize(2);

  // Reference: one uninterrupted run, no checkpointing involved.
  const DistributedConfig plain = resume_config(ranks);
  const DistributedResult reference = train_distributed(tim, made, plain);

  // Checkpointed run: snapshots at iterations 4 and 8; the run completes,
  // so <base>.rank<r> holds the iteration-8 state.
  DistributedConfig checkpointed = plain;
  checkpointed.checkpoint_base = base;
  checkpointed.checkpoint_every = 4;
  const DistributedResult first = train_distributed(tim, made, checkpointed);
  ASSERT_EQ(first.converged_energy, reference.converged_energy);

  // Resume: load the iteration-8 snapshots and replay 8..12. The replayed
  // tail (parameters, optimizer moments, sampler RNG) must land on exactly
  // the reference's final state.
  DistributedConfig resumed = checkpointed;
  resumed.resume = true;
  const DistributedResult second = train_distributed(tim, made, resumed);

  ASSERT_EQ(second.final_parameters.size(), reference.final_parameters.size());
  for (std::size_t i = 0; i < reference.final_parameters.size(); ++i)
    EXPECT_EQ(second.final_parameters[i], reference.final_parameters[i]);
  EXPECT_EQ(second.converged_energy, reference.converged_energy);
  EXPECT_EQ(second.converged_std, reference.converged_std);
  // Replayed history slots match; pre-resume slots read 0 by contract.
  for (std::size_t i = 8; i < reference.energy_history.size(); ++i)
    EXPECT_EQ(second.energy_history[i], reference.energy_history[i]);
  for (std::size_t i = 0; i < 8; ++i)
    EXPECT_EQ(second.energy_history[i], Real(0));

  remove_rank_checkpoints(base, ranks);
}

TEST(DistributedCheckpoint, OneRankCheckpointContinuesInTheSerialTrainer) {
  // One training step and one checkpoint layout for 1..N ranks: the rank
  // snapshot of a 1-rank run restores into a serial VqmcTrainer built from
  // the same parts, which then lands on the distributed run's final state.
  const std::string base = "/tmp/vqmc_dist_to_serial_test";
  remove_rank_checkpoints(base, 1);

  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(6, 1);
  Made made(6, 8);
  made.initialize(2);
  DistributedConfig cfg = resume_config(1);
  cfg.checkpoint_base = base;
  cfg.checkpoint_every = 4;
  const DistributedResult dist = train_distributed(tim, made, cfg);

  // <base>.rank0 holds the top-of-iteration-8 state.
  Made serial(6, 8);
  AutoregressiveSampler sampler(serial, cfg.seed ^ rng::splitmix64_once(1));
  Adam adam(0.01);
  TrainerConfig tcfg;
  tcfg.iterations = cfg.iterations;
  tcfg.batch_size = cfg.mini_batch_size;
  VqmcTrainer trainer(tim, serial, sampler, adam, tcfg);
  trainer.restore(load_training_checkpoint(base + ".rank0"));
  ASSERT_EQ(trainer.iteration(), 8);
  trainer.run();

  ASSERT_EQ(dist.final_parameters.size(), serial.num_parameters());
  for (std::size_t i = 0; i < serial.num_parameters(); ++i)
    EXPECT_EQ(serial.parameters()[i], dist.final_parameters[i])
        << "parameter " << i;
  ASSERT_EQ(trainer.history().size(), 4u);
  for (const IterationMetrics& m : trainer.history())
    EXPECT_EQ(m.energy, dist.energy_history[std::size_t(m.iteration)])
        << "iteration " << m.iteration;

  remove_rank_checkpoints(base, 1);
}

TEST(DistributedCheckpoint, ResumeRejectsAForeignModel) {
  const std::string base = "/tmp/vqmc_dist_resume_reject_test";
  remove_rank_checkpoints(base, 1);

  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(6, 1);
  Made made(6, 8);
  made.initialize(2);
  DistributedConfig cfg = resume_config(1, 8);
  cfg.checkpoint_base = base;
  cfg.checkpoint_every = 4;
  (void)train_distributed(tim, made, cfg);

  // Same checkpoint, different architecture: the identity check must fire.
  const TransverseFieldIsing other_tim =
      TransverseFieldIsing::random_dense(7, 1);
  Made other(7, 8);
  other.initialize(2);
  DistributedConfig wrong = cfg;
  wrong.resume = true;
  EXPECT_THROW((void)train_distributed(other_tim, other, wrong), Error);

  remove_rank_checkpoints(base, 1);
}

TEST(DistributedCheckpoint, ResumeRequiresABasePath) {
  const TransverseFieldIsing tim = TransverseFieldIsing::random_dense(4, 1);
  Made made(4, 4);
  made.initialize(1);
  DistributedConfig cfg = resume_config(1, 4);
  cfg.resume = true;  // but no checkpoint_base
  EXPECT_THROW((void)train_distributed(tim, made, cfg), Error);
}

}  // namespace
}  // namespace vqmc::parallel
