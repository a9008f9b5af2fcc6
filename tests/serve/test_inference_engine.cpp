#include "serve/inference_engine.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/local_energy.hpp"
#include "hamiltonian/transverse_field_ising.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "sampler/fast_made_sampler.hpp"
#include "support/alloc_count.hpp"
#include "support/telemetry_gate.hpp"
#include "telemetry/metrics_registry.hpp"
#include "telemetry/telemetry.hpp"

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

TEST(EngineCounters, CounterFieldNamesArePinned) {
  // counter_fields() is the single naming authority for `vqmc_serve --smoke`
  // output and the observability exposition snapshot. Renaming or
  // reordering a field silently breaks dashboards and the CI metrics
  // checker — this test makes that a visible decision.
  EngineCounters counters;
  counters.submitted = 1;
  counters.completed = 2;
  counters.failed = 3;
  counters.shed = 4;
  counters.quota_rejected = 8;
  counters.batches = 5;
  counters.publishes = 6;
  counters.max_batch_rows = 7;
  counters.nonfinite_draws = 9;
  const auto fields = counter_fields(counters);
  const std::vector<std::pair<std::string, std::uint64_t>> expected = {
      {"serve.submitted", 1},      {"serve.completed", 2},
      {"serve.failed", 3},         {"serve.shed", 4},
      {"serve.quota_rejected", 8}, {"serve.batches", 5},
      {"serve.publishes", 6},      {"serve.max_batch_rows", 7},
      {"serve.nonfinite_draws", 9},
  };
  ASSERT_EQ(fields.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(fields[i].first, expected[i].first) << "index " << i;
    EXPECT_EQ(fields[i].second, expected[i].second) << "index " << i;
  }
}

TEST(EngineCounters, FleetCounterFieldNamesArePinned) {
  // The labeled per-model / per-tenant families are scraped by CI
  // (check_metrics.py --profile serve) and rendered by the obs endpoint —
  // renaming a family or a label key is a dashboard-breaking decision.
  ModelCounters model;
  model.submitted = 1;
  model.version = 2;
  const auto model_fields = model_counter_fields("m0", model);
  ASSERT_EQ(model_fields.size(), 7u);
  EXPECT_EQ(model_fields[0].first, "serve.model.submitted{model=\"m0\"}");
  EXPECT_EQ(model_fields[0].second, 1u);
  EXPECT_EQ(model_fields[1].first, "serve.model.completed{model=\"m0\"}");
  EXPECT_EQ(model_fields[2].first, "serve.model.failed{model=\"m0\"}");
  EXPECT_EQ(model_fields[3].first, "serve.model.batches{model=\"m0\"}");
  EXPECT_EQ(model_fields[4].first, "serve.model.publishes{model=\"m0\"}");
  EXPECT_EQ(model_fields[5].first, "serve.model.version{model=\"m0\"}");
  EXPECT_EQ(model_fields[5].second, 2u);
  EXPECT_EQ(model_fields[6].first,
            "serve.model.max_batch_rows{model=\"m0\"}");

  TenantCounters tenant;
  tenant.quota_rejected = 9;
  const auto tenant_fields = tenant_counter_fields("alice", tenant);
  ASSERT_EQ(tenant_fields.size(), 5u);
  EXPECT_EQ(tenant_fields[0].first,
            "serve.tenant.submitted{tenant=\"alice\"}");
  EXPECT_EQ(tenant_fields[1].first,
            "serve.tenant.completed{tenant=\"alice\"}");
  EXPECT_EQ(tenant_fields[2].first, "serve.tenant.failed{tenant=\"alice\"}");
  EXPECT_EQ(tenant_fields[3].first, "serve.tenant.shed{tenant=\"alice\"}");
  EXPECT_EQ(tenant_fields[4].first,
            "serve.tenant.quota_rejected{tenant=\"alice\"}");
  EXPECT_EQ(tenant_fields[4].second, 9u);
}

TEST(EngineCounters, CounterFieldsTrackTheLiveEngine) {
  Made made(6, 8);
  randomize_parameters(made, 3);
  InferenceEngine engine({.workers = 1});
  engine.publish_model(made);
  const Matrix configs = random_configs(4, 6, 5);
  (void)engine.submit_log_psi(configs).get();
  const auto fields = counter_fields(engine.counters());
  auto value_of = [&](const std::string& name) -> std::uint64_t {
    for (const auto& [n, v] : fields)
      if (n == name) return v;
    ADD_FAILURE() << "missing field " << name;
    return 0;
  };
  EXPECT_EQ(value_of("serve.submitted"), 1u);
  EXPECT_EQ(value_of("serve.completed"), 1u);
  EXPECT_EQ(value_of("serve.publishes"), 1u);
  EXPECT_GE(value_of("serve.batches"), 1u);
  EXPECT_GE(value_of("serve.max_batch_rows"), 4u);
}

TEST(InferenceEngine, LogPsiMatchesModelBitForBit) {
  Made made(8, 10);
  randomize_parameters(made, 1);
  InferenceEngine engine({.workers = 2});
  EXPECT_EQ(engine.publish_model(made), 1u);

  const Matrix configs = random_configs(16, 8, 2);
  Vector expected(16);
  made.log_psi(configs, expected.span());

  auto future = engine.submit_log_psi(configs);
  const EvalResult result = future.get();
  EXPECT_EQ(result.model_version, 1u);
  ASSERT_EQ(result.values.size(), 16u);
  for (std::size_t k = 0; k < 16; ++k)
    EXPECT_EQ(expected[k], result.values[k]);
}

TEST(InferenceEngine, SampleMatchesInTrainerSamplerBitForBit) {
  Made made(9, 7);
  randomize_parameters(made, 3);
  InferenceEngine engine;
  engine.publish_model(made);

  FastMadeSampler reference(made, 77);
  Matrix expected(32, 9);
  reference.sample(expected);

  const SampleResult result = engine.submit_sample(32, 77).get();
  EXPECT_EQ(result.model_version, 1u);
  ASSERT_EQ(result.samples.rows(), 32u);
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(expected.data()[i], result.samples.data()[i]);
}

TEST(InferenceEngine, NonfiniteDrawsSurfaceInEngineCounters) {
  // Serving a sick model (NaN output bias) must clamp the affected draws
  // and attribute them through counters().nonfinite_draws, so health guards
  // can tell a sick model from a sick engine.
  constexpr std::size_t n = 6;
  Made made(n, 8);
  randomize_parameters(made, 19);
  made.parameters()[made.num_parameters() - n + 1] =  // b2[1]
      std::numeric_limits<Real>::quiet_NaN();
  InferenceEngine engine({.workers = 1});
  engine.publish_model(made);

  const SampleResult result = engine.submit_sample(16, 5).get();
  ASSERT_EQ(result.samples.rows(), 16u);
  EXPECT_EQ(engine.counters().nonfinite_draws, 16u);  // one clamp per row
  const auto fields = counter_fields(engine.counters());
  bool found = false;
  for (const auto& [name, value] : fields) {
    if (name == "serve.nonfinite_draws") {
      found = true;
      EXPECT_EQ(value, 16u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(InferenceEngine, LocalEnergyMatchesEngineDirect) {
  const auto tim = TransverseFieldIsing::random_dense(6, 11);
  Made made(6, 8);
  randomize_parameters(made, 4);
  ServeConfig config;
  config.hamiltonian = &tim;
  InferenceEngine engine(config);
  engine.publish_model(made);

  const Matrix configs = random_configs(12, 6, 5);
  std::vector<Real> expected(12);
  LocalEnergyEngine direct(tim, made);
  direct.compute(configs, expected);

  const EvalResult result = engine.submit_local_energy(configs).get();
  ASSERT_EQ(result.values.size(), 12u);
  for (std::size_t k = 0; k < 12; ++k)
    EXPECT_EQ(expected[k], result.values[k]);
}

TEST(InferenceEngine, LocalEnergyBatchesCountRowsAndDistinctRows) {
  VQMC_SKIP_WITHOUT_TELEMETRY();
  // A served batch takes the trainer's local-energy path: its repeats are
  // evaluated once and counted under the trainer's instrument names.
  struct TelemetryOn {
    bool was = telemetry::enabled();
    TelemetryOn() { telemetry::set_enabled(true); }
    ~TelemetryOn() { telemetry::set_enabled(was); }
  } telemetry_on;
  const auto tim = TransverseFieldIsing::random_dense(6, 31);
  Made made(6, 8);
  randomize_parameters(made, 32);
  ServeConfig config;
  config.hamiltonian = &tim;
  config.workers = 1;
  InferenceEngine engine(config);
  engine.publish_model(made);
  const Matrix distinct = random_configs(4, 6, 33);
  Matrix configs(12, 6);
  for (std::size_t k = 0; k < 12; ++k)
    for (std::size_t i = 0; i < 6; ++i) configs(k, i) = distinct(k % 4, i);
  std::vector<Real> expected(4);
  LocalEnergyEngine(tim, made).compute(distinct, expected);

  telemetry::MetricsRegistry& registry = telemetry::metrics();
  const std::uint64_t rows = registry.counter("local_energy.rows").value();
  const std::uint64_t unique =
      registry.counter("local_energy.distinct_rows").value();
  const EvalResult result = engine.submit_local_energy(configs).get();
  ASSERT_EQ(result.values.size(), 12u);
  for (std::size_t k = 0; k < 12; ++k)
    EXPECT_EQ(result.values[k], expected[k % 4]) << "row " << k;
  EXPECT_EQ(registry.counter("local_energy.rows").value() - rows, 12u);
  EXPECT_EQ(registry.counter("local_energy.distinct_rows").value() - unique,
            4u);
}

TEST(InferenceEngine, RepeatedLocalEnergyBatchAllocatesOnlyThePayloads) {
  // The worker keeps its LocalEnergyEngine across batches, so once the
  // flip-path scratch is shaped a local-energy request allocates exactly
  // what a log-psi request of the same rows does: the request, its future
  // and the response payload.
  const auto tim = TransverseFieldIsing::random_dense(12, 21);
  Made made(12, 14);
  randomize_parameters(made, 22);
  ServeConfig config;
  config.hamiltonian = &tim;
  config.workers = 1;
  config.max_wait_us = 0;
  InferenceEngine engine(config);
  engine.publish_model(made);
  const Matrix configs = random_configs(10, 12, 23);
  for (int warm = 0; warm < 2; ++warm) {
    (void)engine.submit_log_psi(configs).get();
    (void)engine.submit_local_energy(configs).get();
  }
  for (int round = 0; round < 3; ++round) {
    Matrix log_psi_input = configs, energy_input = configs;
    const std::uint64_t start = vqmc::testing::allocation_count();
    (void)engine.submit_log_psi(std::move(log_psi_input)).get();
    const std::uint64_t mid = vqmc::testing::allocation_count();
    const EvalResult energies =
        engine.submit_local_energy(std::move(energy_input)).get();
    const std::uint64_t end = vqmc::testing::allocation_count();
    EXPECT_EQ(end - mid, mid - start) << "round " << round;
    EXPECT_EQ(energies.values.size(), 10u);
  }
}

TEST(InferenceEngine, LocalEnergyRequiresHamiltonian) {
  Made made(6, 8);
  InferenceEngine engine;
  engine.publish_model(made);
  EXPECT_THROW((void)engine.submit_local_energy(random_configs(2, 6, 1)),
               Error);
}

TEST(InferenceEngine, SubmitBeforePublishRejected) {
  InferenceEngine engine;
  EXPECT_THROW((void)engine.submit_sample(4, 1), Error);
}

TEST(InferenceEngine, HotSwapAttributesVersionsExactly) {
  Made v1(7, 9), v2(7, 9);
  randomize_parameters(v1, 10);
  randomize_parameters(v2, 20);
  InferenceEngine engine;
  EXPECT_EQ(engine.publish_model(v1), 1u);

  const Matrix configs = random_configs(8, 7, 6);
  Vector expected_v1(8), expected_v2(8);
  v1.log_psi(configs, expected_v1.span());
  v2.log_psi(configs, expected_v2.span());

  const EvalResult before = engine.submit_log_psi(configs).get();
  EXPECT_EQ(before.model_version, 1u);
  for (std::size_t k = 0; k < 8; ++k)
    EXPECT_EQ(expected_v1[k], before.values[k]);

  EXPECT_EQ(engine.publish_model(v2), 2u);
  EXPECT_EQ(engine.current_version(), 2u);
  const EvalResult after = engine.submit_log_psi(configs).get();
  EXPECT_EQ(after.model_version, 2u);
  for (std::size_t k = 0; k < 8; ++k)
    EXPECT_EQ(expected_v2[k], after.values[k]);
}

TEST(InferenceEngine, PublishRejectsProblemSizeChange) {
  Made small(6, 8), large(7, 8);
  InferenceEngine engine;
  engine.publish_model(small);
  EXPECT_THROW(engine.publish_model(large), SnapshotMismatchError);
}

TEST(InferenceEngine, WindowCoalescesConcurrentRequestsIntoOneBatch) {
  Made made(6, 8);
  randomize_parameters(made, 7);
  ServeConfig config;
  config.workers = 1;
  config.max_batch_rows = 8;
  config.max_wait_us = 200000;  // generous window: the budget closes it
  InferenceEngine engine(config);
  engine.publish_model(made);

  const Matrix configs = random_configs(1, 6, 8);
  std::vector<std::future<EvalResult>> futures;
  for (int i = 0; i < 8; ++i)
    futures.push_back(engine.submit_log_psi(configs));
  for (auto& future : futures) (void)future.get();

  const EngineCounters counters = engine.counters();
  EXPECT_EQ(counters.submitted, 8u);
  EXPECT_EQ(counters.completed, 8u);
  // All eight row-1 requests fit one micro-batch; allow a second in case
  // the worker dispatched before the budget filled.
  EXPECT_LE(counters.batches, 2u);
}

TEST(InferenceEngine, SaturatedQueueFillsAFull128RowBatch) {
  // Regression: the batch builder must be able to coalesce all the way up
  // to max_batch_rows — the serve bench used to top out at 64-row batches
  // at the 128-row config because the closed-loop producers could never
  // outrun the window.  pause() lets the queue saturate deterministically;
  // on resume() the single worker must harvest one full 128-row batch.
  Made made(6, 8);
  randomize_parameters(made, 21);
  ServeConfig config;
  config.workers = 1;
  config.max_batch_rows = 128;
  config.max_wait_us = 4000;
  config.max_pending_rows = 256;
  InferenceEngine engine(config);
  engine.publish_model(made);

  engine.pause();
  std::vector<std::future<SampleResult>> futures;
  for (int i = 0; i < 128; ++i)
    futures.push_back(engine.submit_sample(1, std::uint64_t(i)));
  engine.resume();
  for (auto& future : futures) (void)future.get();

  const EngineCounters counters = engine.counters();
  EXPECT_EQ(counters.submitted, 128u);
  EXPECT_EQ(counters.completed, 128u);
  EXPECT_EQ(counters.batches, 1u);
  EXPECT_EQ(counters.max_batch_rows, 128u);
}

TEST(InferenceEngine, AdaptiveWindowClosesWhenAllPendingRowsAreBatched) {
  // Closed-loop regression: one lone client must not pay the full batching
  // window when every admitted row is already in the open batch (nothing
  // else can arrive until this batch completes).  With a 0.5 s window the
  // request must still round-trip in a small fraction of it.
  Made made(6, 8);
  randomize_parameters(made, 23);
  ServeConfig config;
  config.workers = 1;
  config.max_batch_rows = 128;
  config.max_wait_us = 500000;
  InferenceEngine engine(config);
  engine.publish_model(made);

  const double t0 = telemetry::now_us();
  (void)engine.submit_sample(1, 7).get();
  const double elapsed_us = telemetry::now_us() - t0;
  // One wait slice is max_wait_us / 8 = 62.5 ms; anything close to the
  // full 500 ms window means the adaptive close regressed.
  EXPECT_LT(elapsed_us, 250000.0);
}

TEST(InferenceEngine, OverloadShedsWithTypedError) {
  Made made(6, 8);
  randomize_parameters(made, 9);
  ServeConfig config;
  config.workers = 1;
  config.max_batch_rows = 4;
  config.max_wait_us = 200000;  // holds the first batch open
  config.max_pending_rows = 4;
  InferenceEngine engine(config);
  engine.publish_model(made);

  // 3 rows outstanding; a 2-row request exceeds the bound of 4 and is shed
  // synchronously, while a 1-row request still fits (and fills the batch).
  auto first = engine.submit_log_psi(random_configs(3, 6, 10));
  EXPECT_THROW((void)engine.submit_log_psi(random_configs(2, 6, 11)),
               ServeOverloadError);
  auto third = engine.submit_log_psi(random_configs(1, 6, 12));
  (void)first.get();
  (void)third.get();

  const EngineCounters counters = engine.counters();
  EXPECT_EQ(counters.shed, 1u);
  EXPECT_EQ(counters.submitted, 2u);
  EXPECT_EQ(counters.completed, 2u);
  EXPECT_EQ(counters.failed, 0u);
}

TEST(InferenceEngine, DeadlineExpiryFailsThroughTheFuture) {
  Made made(6, 8);
  randomize_parameters(made, 13);
  ServeConfig config;
  config.workers = 1;
  config.max_batch_rows = 8;
  config.max_wait_us = 150000;  // window far beyond the request deadline
  InferenceEngine engine(config);
  engine.publish_model(made);

  auto future = engine.submit_log_psi(random_configs(1, 6, 14),
                                      /*timeout_us=*/1000);
  EXPECT_THROW((void)future.get(), ServeDeadlineError);
  engine.drain();
  const EngineCounters counters = engine.counters();
  EXPECT_EQ(counters.submitted, 1u);
  EXPECT_EQ(counters.failed, 1u);
  EXPECT_EQ(counters.completed, 0u);
}

TEST(InferenceEngine, ShutdownDrainsBacklogAndRejectsNewWork) {
  Made made(6, 8);
  randomize_parameters(made, 15);
  ServeConfig config;
  config.workers = 1;
  config.max_wait_us = 500000;  // shutdown must collapse this window
  InferenceEngine engine(config);
  engine.publish_model(made);

  std::vector<std::future<EvalResult>> futures;
  for (int i = 0; i < 6; ++i)
    futures.push_back(engine.submit_log_psi(random_configs(1, 6, 16)));
  engine.shutdown();

  // Every admitted request was fulfilled during shutdown (none dropped).
  for (auto& future : futures) (void)future.get();
  const EngineCounters counters = engine.counters();
  EXPECT_EQ(counters.submitted, 6u);
  EXPECT_EQ(counters.completed + counters.failed, 6u);

  EXPECT_THROW((void)engine.submit_sample(1, 1), ServeShutdownError);
  engine.shutdown();  // idempotent
}

TEST(InferenceEngine, DrainReachesQuiescentAccounting) {
  Made made(6, 8);
  randomize_parameters(made, 17);
  InferenceEngine engine({.workers = 2});
  engine.publish_model(made);
  std::vector<std::future<SampleResult>> futures;
  for (int i = 0; i < 20; ++i)
    futures.push_back(engine.submit_sample(4, std::uint64_t(i)));
  engine.drain();
  const EngineCounters counters = engine.counters();
  EXPECT_EQ(counters.submitted, 20u);
  EXPECT_EQ(counters.completed + counters.failed, counters.submitted);
  for (auto& future : futures) (void)future.get();
}

TEST(InferenceEngine, OversizedRequestIsServedAlone) {
  // A request larger than the micro-batch budget is legal; it simply forms
  // its own batch.
  Made made(6, 8);
  randomize_parameters(made, 19);
  ServeConfig config;
  config.max_batch_rows = 4;
  InferenceEngine engine(config);
  engine.publish_model(made);

  FastMadeSampler reference(made, 5);
  Matrix expected(16, 6);
  reference.sample(expected);
  const SampleResult result = engine.submit_sample(16, 5).get();
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(expected.data()[i], result.samples.data()[i]);
}

TEST(InferenceEngine, WrongSpinCountRejectedAtSubmit) {
  Made made(6, 8);
  InferenceEngine engine;
  engine.publish_model(made);
  EXPECT_THROW((void)engine.submit_log_psi(random_configs(2, 7, 1)), Error);
}

TEST(InferenceEngine, OverloadMessageNamesLimitDepthAndTenant) {
  // The rejection message is actionable by contract (errors.hpp): an
  // operator reading a client-side log must see which knob tripped, how
  // deep the backlog was, and which tenant was turned away.
  Made made(6, 8);
  randomize_parameters(made, 9);
  ServeConfig config;
  config.workers = 1;
  config.max_batch_rows = 4;
  config.max_wait_us = 200000;  // holds the first batch open
  config.max_pending_rows = 4;
  InferenceEngine engine(config);
  engine.publish_model(made);

  auto first = engine.submit_log_psi(random_configs(3, 6, 10));
  RequestOptions options;
  options.tenant = "carol";
  try {
    (void)engine.submit_log_psi(random_configs(2, 6, 11), options);
    FAIL() << "expected ServeOverloadError";
  } catch (const ServeOverloadError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'carol'"), std::string::npos) << what;
    EXPECT_NE(what.find("3 rows outstanding"), std::string::npos) << what;
    EXPECT_NE(what.find("max_pending_rows limit of 4"), std::string::npos)
        << what;
  }
  (void)first.get();
  const auto tenants = engine.tenant_counters();
  for (const auto& [name, t] : tenants) {
    if (name == "carol") EXPECT_EQ(t.shed, 1u);
  }
}

TEST(InferenceEngine, QuotaRejectionIsTypedDistinctAndActionable) {
  // A tenant over its token-bucket budget gets ServeQuotaError (not
  // overload: the engine has capacity), synchronously, with the budget in
  // the message; other tenants are unaffected.
  Made made(6, 8);
  randomize_parameters(made, 31);
  ServeConfig config;
  config.workers = 1;
  config.tenant_quotas["dave"] = TenantQuota{0, 4};  // 4 rows ever, no refill
  InferenceEngine engine(config);
  engine.publish_model(made);

  RequestOptions dave;
  dave.tenant = "dave";
  (void)engine.submit_log_psi(random_configs(4, 6, 32), dave).get();
  try {
    (void)engine.submit_log_psi(random_configs(1, 6, 33), dave);
    FAIL() << "expected ServeQuotaError";
  } catch (const ServeQuotaError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'dave'"), std::string::npos) << what;
    EXPECT_NE(what.find("rate"), std::string::npos) << what;
    EXPECT_NE(what.find("burst"), std::string::npos) << what;
    EXPECT_NE(what.find("available"), std::string::npos) << what;
  }
  // An unlimited tenant sails through while dave is rejected.
  (void)engine.submit_log_psi(random_configs(1, 6, 34)).get();

  const EngineCounters counters = engine.counters();
  EXPECT_EQ(counters.quota_rejected, 1u);
  EXPECT_EQ(counters.shed, 0u);
  EXPECT_EQ(counters.submitted, 2u);
  for (const auto& [name, t] : engine.tenant_counters()) {
    if (name == "dave") {
      EXPECT_EQ(t.quota_rejected, 1u);
      EXPECT_EQ(t.submitted, 1u);
    } else {
      EXPECT_EQ(t.quota_rejected, 0u);
    }
  }
}

TEST(InferenceEngine, QuotaRefillsAtTheConfiguredRate) {
  Made made(6, 8);
  randomize_parameters(made, 35);
  ServeConfig config;
  config.workers = 1;
  // 10 rows/s: the 2-row bucket needs 200 ms to refill, so the immediate
  // resubmit is rejected (back-to-back statements run far faster than
  // that) while a 300 ms wait guarantees a full bucket again.
  config.tenant_quotas["erin"] = TenantQuota{10, 2};
  InferenceEngine engine(config);
  engine.publish_model(made);

  RequestOptions erin;
  erin.tenant = "erin";
  (void)engine.submit_log_psi(random_configs(2, 6, 36), erin).get();
  EXPECT_THROW((void)engine.submit_log_psi(random_configs(2, 6, 37), erin),
               ServeQuotaError);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  (void)engine.submit_log_psi(random_configs(2, 6, 38), erin).get();
  EXPECT_EQ(engine.counters().quota_rejected, 1u);
}

TEST(InferenceEngine, NearDeadlineRequestIsDispatchedFirstViaEdf) {
  // EDF batch formation: a near-deadline request admitted *behind* a
  // deadline-free backlog of the same (model, kind) is harvested at the
  // front of the next batch.  The 4-row backlog fills max_batch_rows, so
  // without EDF the 1-row request would wait out the whole backlog batch
  // plus the window; with EDF it is served first, alone, and makes its
  // deadline.
  Made made(6, 8);
  randomize_parameters(made, 41);
  ServeConfig config;
  config.workers = 1;
  config.max_batch_rows = 4;
  config.max_wait_us = 0;  // dispatch immediately once resumed
  InferenceEngine engine(config);
  engine.publish_model(made);

  engine.pause();
  auto backlog = engine.submit_log_psi(random_configs(4, 6, 42));
  RequestOptions urgent;
  urgent.timeout_us = 2e6;  // 2 s: generous, but finite => EDF-first
  auto first = engine.submit_log_psi(random_configs(1, 6, 43), urgent);
  engine.resume();

  // The urgent request makes its deadline (EDF put it in the first batch).
  EXPECT_NO_THROW((void)first.get());
  EXPECT_NO_THROW((void)backlog.get());
  const EngineCounters counters = engine.counters();
  EXPECT_EQ(counters.completed, 2u);
  EXPECT_EQ(counters.failed, 0u);
  // They could not have co-batched (1 + 4 > max_batch_rows = 4).
  EXPECT_EQ(counters.batches, 2u);
}

TEST(InferenceEngine, ExpiredDeadlineFailsBeforeExecutionNeverAfter) {
  // A request whose deadline passed while queued is failed *before* the
  // kernel runs: failed == 1 with zero completions and zero wasted compute
  // (the batch that would have contained it executes nothing for it).
  Made made(6, 8);
  randomize_parameters(made, 45);
  ServeConfig config;
  config.workers = 1;
  config.max_wait_us = 0;
  InferenceEngine engine(config);
  engine.publish_model(made);

  engine.pause();
  RequestOptions options;
  options.tenant = "frank";
  options.timeout_us = 1000;  // 1 ms, expires while paused
  auto future = engine.submit_log_psi(random_configs(1, 6, 46), options);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  engine.resume();
  EXPECT_THROW((void)future.get(), ServeDeadlineError);
  engine.drain();

  const EngineCounters counters = engine.counters();
  EXPECT_EQ(counters.failed, 1u);
  EXPECT_EQ(counters.completed, 0u);
  for (const auto& [name, t] : engine.tenant_counters()) {
    if (name == "frank") EXPECT_EQ(t.failed, 1u);
  }
}

TEST(InferenceEngine, FleetServesIndependentModelsOnOneWorkerPool) {
  // Two named models — different problem sizes — served by one shared
  // pool, each with its own version chain and exact per-model accounting.
  Made small(6, 8), large(9, 7);
  randomize_parameters(small, 51);
  randomize_parameters(large, 52);
  InferenceEngine engine({.workers = 2});
  EXPECT_EQ(engine.publish_model("small", small), 1u);
  EXPECT_EQ(engine.publish_model("large", large), 1u);

  Vector expected_small(3), expected_large(2);
  const Matrix configs_small = random_configs(3, 6, 53);
  const Matrix configs_large = random_configs(2, 9, 54);
  small.log_psi(configs_small, expected_small.span());
  large.log_psi(configs_large, expected_large.span());

  RequestOptions to_small, to_large;
  to_small.model = "small";
  to_large.model = "large";
  const EvalResult rs =
      engine.submit_log_psi(configs_small, to_small).get();
  const EvalResult rl =
      engine.submit_log_psi(configs_large, to_large).get();
  for (std::size_t k = 0; k < 3; ++k)
    EXPECT_EQ(expected_small[k], rs.values[k]);
  for (std::size_t k = 0; k < 2; ++k)
    EXPECT_EQ(expected_large[k], rl.values[k]);

  // Per-model hot-swap: bumping `small` leaves `large` at version 1.
  randomize_parameters(small, 55);
  EXPECT_EQ(engine.publish_model("small", small), 2u);
  EXPECT_EQ(engine.current_version("small"), 2u);
  EXPECT_EQ(engine.current_version("large"), 1u);

  const auto models = engine.model_counters();
  ASSERT_EQ(models.size(), 2u);
  for (const auto& [name, m] : models) {
    EXPECT_EQ(m.submitted, 1u) << name;
    EXPECT_EQ(m.completed, 1u) << name;
    EXPECT_EQ(m.failed, 0u) << name;
  }
  const auto names = engine.model_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "large");
  EXPECT_EQ(names[1], "small");
}

TEST(InferenceEngine, PerModelProblemSizePinStillHolds) {
  // The spin-count pin is per chain: republishing `a` with a different
  // size is rejected even though `b` happily serves that size.
  Made six(6, 8), seven(7, 8);
  InferenceEngine engine;
  engine.publish_model("a", six);
  engine.publish_model("b", seven);
  EXPECT_THROW(engine.publish_model("a", seven), SnapshotMismatchError);
  EXPECT_EQ(engine.current_version("a"), 1u);
}

TEST(InferenceEngine, UnknownModelRejectedAtSubmit) {
  Made made(6, 8);
  InferenceEngine engine;
  engine.publish_model(made);
  RequestOptions options;
  options.model = "nope";
  try {
    (void)engine.submit_sample(1, 1, options);
    FAIL() << "expected an error naming the model";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("'nope'"), std::string::npos);
  }
}

TEST(InferenceEngine, LegacyDefaultModelCallsStillRoute) {
  // The versionless publish/submit overloads forward to
  // ServeConfig::default_model — serve v1 call sites compile and behave
  // unchanged.
  Made made(6, 8);
  randomize_parameters(made, 61);
  InferenceEngine engine;
  EXPECT_EQ(engine.publish_model(made), 1u);
  EXPECT_EQ(engine.current_version(), 1u);
  EXPECT_EQ(engine.model_names(), std::vector<std::string>{"default"});
  (void)engine.submit_log_psi(random_configs(2, 6, 62)).get();
  const auto models = engine.model_counters();
  ASSERT_EQ(models.size(), 1u);
  EXPECT_EQ(models[0].first, "default");
  EXPECT_EQ(models[0].second.completed, 1u);
}

}  // namespace
}  // namespace vqmc::serve
