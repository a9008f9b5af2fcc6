#include "serve/model_snapshot.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <string>

#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "sampler/autoregressive_sampler.hpp"
#include "sampler/fast_made_sampler.hpp"
#include "support/alloc_count.hpp"

namespace vqmc::serve {
namespace {

void randomize_parameters(WavefunctionModel& model, std::uint64_t seed) {
  rng::Xoshiro256 gen(seed);
  for (Real& p : model.parameters()) p = rng::uniform(gen, -0.8, 0.8);
}

Matrix random_configs(std::size_t rows, std::size_t n, std::uint64_t seed) {
  rng::Xoshiro256 gen(seed);
  Matrix batch(rows, n);
  for (std::size_t k = 0; k < rows; ++k)
    for (std::size_t i = 0; i < n; ++i)
      batch(k, i) = rng::bernoulli(gen, 0.5) ? 1 : 0;
  return batch;
}

TrainingSnapshot made_training_snapshot(const Made& made) {
  TrainingSnapshot snapshot;
  snapshot.model_name = made.name();
  snapshot.num_spins = made.num_spins();
  snapshot.num_parameters = made.num_parameters();
  snapshot.parameters.assign(made.parameters().begin(),
                             made.parameters().end());
  return snapshot;
}

TEST(ModelSnapshot, LogPsiBitIdenticalToModel) {
  Made made(10, 13);
  randomize_parameters(made, 1);
  const auto snapshot = ModelSnapshot::from_model(made);
  const Matrix batch = random_configs(64, 10, 2);
  Vector expected(64), got(64);
  made.log_psi(batch, expected.span());
  snapshot->log_psi(batch, got.span());
  for (std::size_t k = 0; k < 64; ++k) EXPECT_EQ(expected[k], got[k]);
}

TEST(ModelSnapshot, LogPsiWorkspaceOverloadMatchesPlainAndReuses) {
  Made made(10, 13);
  randomize_parameters(made, 21);
  const auto snapshot = ModelSnapshot::from_model(made);
  const Matrix batch = random_configs(40, 10, 22);
  Vector plain(40), with_ws(40);
  snapshot->log_psi(batch, plain.span());

  Made::Workspace ws;
  snapshot->log_psi(batch, with_ws.span(), ws);
  for (std::size_t k = 0; k < 40; ++k) EXPECT_EQ(plain[k], with_ws[k]);
  // Second call through the now-shaped workspace stays identical.
  snapshot->log_psi(batch, with_ws.span(), ws);
  for (std::size_t k = 0; k < 40; ++k) EXPECT_EQ(plain[k], with_ws[k]);
}

TEST(ModelSnapshot, SampleBitIdenticalToFastMadeSampler) {
  Made made(8, 11);
  randomize_parameters(made, 3);
  const auto snapshot = ModelSnapshot::from_model(made);

  FastMadeSampler reference(made, 42);
  Matrix expected(96, 8);
  reference.sample(expected);

  Matrix got(96, 8);
  snapshot->sample(got, 42);
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(expected.data()[i], got.data()[i]);
}

TEST(ModelSnapshot, CoalescedSlicesMatchDedicatedSamplers) {
  // Two requests fused into one batch must each receive exactly the rows a
  // dedicated sampler with their seed would have produced — coalescing is
  // invisible to every request.
  Made made(7, 9);
  randomize_parameters(made, 4);
  const auto snapshot = ModelSnapshot::from_model(made);

  Matrix expected_a(5, 7), expected_b(11, 7);
  FastMadeSampler sampler_a(made, 100);
  FastMadeSampler sampler_b(made, 200);
  sampler_a.sample(expected_a);
  sampler_b.sample(expected_b);

  Matrix fused(16, 7);
  rng::Xoshiro256 gen_a(100), gen_b(200);
  const ModelSnapshot::SampleSlice slices[] = {{0, 5, &gen_a},
                                               {5, 11, &gen_b}};
  snapshot->sample(fused, slices);

  for (std::size_t k = 0; k < 5; ++k)
    for (std::size_t i = 0; i < 7; ++i)
      EXPECT_EQ(expected_a(k, i), fused(k, i));
  for (std::size_t k = 0; k < 11; ++k)
    for (std::size_t i = 0; i < 7; ++i)
      EXPECT_EQ(expected_b(k, i), fused(5 + k, i));
}

TEST(ModelSnapshot, ThreeWayDrawParityAcrossSizes) {
  // The batched conditional engine serves both fast paths, and the baseline
  // AutoregressiveSampler is an independent implementation: under one seed,
  // all three must emit the identical batch, from the minimum spin count
  // (MADE needs n >= 2) through n = 1000.  The batch size covers a full
  // 4-row kernel tile plus a tail row.
  for (const std::size_t n : {2ul, 7ul, 100ul, 300ul, 1000ul}) {
    Made made(n, 9);
    randomize_parameters(made, 3000 + n);
    const auto snapshot = ModelSnapshot::from_model(made);

    AutoregressiveSampler baseline(made, 91);
    FastMadeSampler fast(made, 91);
    Matrix a(5, n), b(5, n), c(5, n);
    baseline.sample(a);
    fast.sample(b);
    EXPECT_EQ(snapshot->sample(c, 91), 0u) << "n = " << n;
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a.data()[i], b.data()[i]) << "AUTO vs fast, n = " << n;
      ASSERT_EQ(b.data()[i], c.data()[i]) << "fast vs snapshot, n = " << n;
    }
  }
}

TEST(ModelSnapshot, NonfiniteDrawsClampedCountedAndStillFastParity) {
  // A snapshot of a sick model (NaN output bias) must clamp the affected
  // conditionals to an unbiased coin, report the count, and keep bit parity
  // with FastMadeSampler over the same model and stream.
  constexpr std::size_t n = 7, bs = 48;
  Made made(n, 10);
  randomize_parameters(made, 13);
  made.parameters()[made.num_parameters() - n + 3] =  // b2[3]
      std::numeric_limits<Real>::quiet_NaN();
  const auto snapshot = ModelSnapshot::from_model(made);

  FastMadeSampler reference(made, 29);
  Matrix expected(bs, n), got(bs, n);
  reference.sample(expected);
  EXPECT_EQ(snapshot->sample(got, 29), bs);
  EXPECT_EQ(reference.statistics().nonfinite_rejections, bs);
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(expected.data()[i], got.data()[i]);
}

TEST(ModelSnapshot, SampleAndLogPsiSteadyStateAllocateNothing) {
  // The serve worker path: once the per-worker workspace shapes stabilize,
  // sample() and log_psi() must not touch the heap (the per-request
  // `Matrix a1(bs, h)` this PR removed showed up exactly here).
  Made made(10, 13);
  randomize_parameters(made, 17);
  const auto snapshot = ModelSnapshot::from_model(made);
  const Matrix batch = random_configs(24, 10, 18);
  Matrix out(24, 10);
  Vector values(24);
  Made::Workspace ws;
  rng::Xoshiro256 gen(5);
  const ModelSnapshot::SampleSlice slice{0, 24, &gen};

  // Warm-up shapes the workspace (and first-touches any lazy internals).
  (void)snapshot->sample(out, {&slice, 1}, ws);
  snapshot->log_psi(batch, values.span(), ws);

  const std::uint64_t before = vqmc::testing::allocation_count();
  (void)snapshot->sample(out, {&slice, 1}, ws);
  snapshot->log_psi(batch, values.span(), ws);
  EXPECT_EQ(vqmc::testing::allocation_count(), before);
}

TEST(ModelSnapshot, FromModelRetainsOnlyTheParametersColumnPackingAndPlan) {
  // A frozen snapshot keeps one derived operand, W1's column packing; both
  // forward layers and the sampler's logit rows read the parameters in
  // place.  At the serving shape n = 1000 that is about 0.23 MB of packing
  // next to 3.8 MB of parameters.
  const std::size_t n = 1000, h = 239;
  const Made made(n, h);
  const std::uint64_t before = vqmc::testing::allocated_bytes();
  const auto snapshot = ModelSnapshot::from_model(made);
  const std::uint64_t bytes = vqmc::testing::allocated_bytes() - before;
  const MaskedPlan& plan = made.plan();
  const std::uint64_t params = made.num_parameters() * sizeof(Real);
  const std::uint64_t packing = plan.w1_col_offsets.back() * sizeof(Real);
  const std::uint64_t plan_bytes =
      (plan.degree.size() + plan.degree_end.size() +
       plan.w1_col_offsets.size()) *
      sizeof(std::size_t);
  EXPECT_LE(bytes, params + packing + plan_bytes + 4096);
}

TEST(ModelSnapshot, RoundTripThroughTrainingSnapshot) {
  // Loading a checkpointed MADE must reproduce the in-trainer sampler's
  // stream bit-for-bit at a fixed seed (the serving<->training parity the
  // satellite demands).
  Made made(9, 12);
  randomize_parameters(made, 5);
  const TrainingSnapshot training = made_training_snapshot(made);
  const auto snapshot = ModelSnapshot::from_training_snapshot(training);
  EXPECT_EQ(snapshot->num_spins(), 9u);
  EXPECT_EQ(snapshot->hidden_size(), 12u);

  FastMadeSampler reference(made, 7);
  Matrix expected(64, 9), got(64, 9);
  reference.sample(expected);
  snapshot->sample(got, 7);
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(expected.data()[i], got.data()[i]);

  const Matrix batch = random_configs(32, 9, 6);
  Vector lp_model(32), lp_snapshot(32);
  made.log_psi(batch, lp_model.span());
  snapshot->log_psi(batch, lp_snapshot.span());
  for (std::size_t k = 0; k < 32; ++k)
    EXPECT_EQ(lp_model[k], lp_snapshot[k]);
}

TEST(ModelSnapshot, RoundTripThroughCheckpointFile) {
  Made made(6, 8);
  randomize_parameters(made, 8);
  const std::string path = ::testing::TempDir() + "serve_ckpt_roundtrip.bin";
  save_training_checkpoint(path, made_training_snapshot(made));
  const TrainingSnapshot loaded = load_training_checkpoint(path);
  const auto snapshot = ModelSnapshot::from_training_snapshot(loaded);
  std::remove(path.c_str());

  FastMadeSampler reference(made, 11);
  Matrix expected(48, 6), got(48, 6);
  reference.sample(expected);
  snapshot->sample(got, 11);
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(expected.data()[i], got.data()[i]);
}

TEST(ModelSnapshot, RejectsForeignModelFamily) {
  Made made(6, 8);
  TrainingSnapshot snapshot = made_training_snapshot(made);
  snapshot.model_name = "RBM";
  EXPECT_THROW(ModelSnapshot::from_training_snapshot(snapshot),
               SnapshotMismatchError);
}

TEST(ModelSnapshot, RejectsNonFactoringParameterCount) {
  Made made(6, 8);
  TrainingSnapshot snapshot = made_training_snapshot(made);
  snapshot.num_parameters += 1;  // 2hn + h + n no longer factors
  snapshot.parameters.push_back(0);
  EXPECT_THROW(ModelSnapshot::from_training_snapshot(snapshot),
               SnapshotMismatchError);
}

TEST(ModelSnapshot, RejectsParameterVectorLengthMismatch) {
  Made made(6, 8);
  TrainingSnapshot snapshot = made_training_snapshot(made);
  snapshot.parameters.pop_back();  // declared count no longer matches
  EXPECT_THROW(ModelSnapshot::from_training_snapshot(snapshot),
               SnapshotMismatchError);
}

TEST(ModelSnapshot, RejectsDegenerateSpinCount) {
  Made made(6, 8);
  TrainingSnapshot snapshot = made_training_snapshot(made);
  snapshot.num_spins = 1;
  EXPECT_THROW(ModelSnapshot::from_training_snapshot(snapshot),
               SnapshotMismatchError);
}

TEST(ModelSnapshot, MismatchIsTypedNotGeneric) {
  // The typed error must be catchable as the serve hierarchy, so a serving
  // process can refuse a bad model push without tearing down.
  Made made(6, 8);
  TrainingSnapshot snapshot = made_training_snapshot(made);
  snapshot.model_name = "RNN";
  bool caught = false;
  try {
    (void)ModelSnapshot::from_training_snapshot(snapshot);
  } catch (const ServeError&) {
    caught = true;
  }
  EXPECT_TRUE(caught);
}

}  // namespace
}  // namespace vqmc::serve
