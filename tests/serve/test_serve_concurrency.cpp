#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/local_energy.hpp"
#include "hamiltonian/transverse_field_ising.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "sampler/fast_made_sampler.hpp"
#include "serve/inference_engine.hpp"
#include "serve/model_snapshot.hpp"

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

// Satellite: the const forward paths must be safe for concurrent read-only
// use.  Eight threads hammer one frozen snapshot (log-psi and sampling) and
// every thread must reproduce the single-threaded golden results exactly.
// Run under TSan in CI to detect any hidden shared scratch.
TEST(ServeConcurrency, EightThreadsShareOneSnapshotBitForBit) {
  constexpr std::size_t kThreads = 8;
  constexpr int kIterations = 16;

  Made made(12, 14);
  randomize_parameters(made, 21);
  const auto snapshot = ModelSnapshot::from_model(made);

  const Matrix batch = random_configs(24, 12, 22);
  Vector golden_lp(24);
  snapshot->log_psi(batch, golden_lp.span());
  Matrix golden_samples(32, 12);
  snapshot->sample(golden_samples, 99);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      Vector lp(24);
      Matrix samples(32, 12);
      for (int iter = 0; iter < kIterations; ++iter) {
        snapshot->log_psi(batch, lp.span());
        for (std::size_t k = 0; k < 24; ++k)
          if (lp[k] != golden_lp[k]) mismatches.fetch_add(1);
        samples.fill(0);
        snapshot->sample(samples, 99);
        for (std::size_t i = 0; i < samples.size(); ++i)
          if (samples.data()[i] != golden_samples.data()[i])
            mismatches.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// The borrowed Made itself must also tolerate concurrent const use (the
// documented contract FastMadeSampler and the snapshot rely on): one model,
// one sampler instance per thread, identical streams.
TEST(ServeConcurrency, WorkersShareOneSnapshotForLocalEnergies) {
  // Four workers run their own LocalEnergyEngine over one snapshot's
  // model (h > n - 1: several hidden units per degree); every response
  // must equal the direct engine's value bitwise (TSan in CI watches the
  // shared weight cache).
  constexpr std::size_t kClients = 4;
  constexpr int kRequests = 24;
  const auto tim = TransverseFieldIsing::random_dense(10, 31);
  Made made(10, 23);
  randomize_parameters(made, 32);
  ServeConfig config;
  config.hamiltonian = &tim;
  config.workers = 4;
  config.max_batch_rows = 3;
  InferenceEngine engine(config);
  engine.publish_model(made);

  std::vector<Matrix> configs;
  std::vector<Vector> golden;
  for (std::size_t c = 0; c < kClients; ++c) {
    configs.push_back(random_configs(2 + c, 10, 40 + c));
    golden.emplace_back(2 + c);
    LocalEnergyEngine(tim, made).compute(configs[c], golden[c].span());
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kRequests; ++r) {
        const EvalResult result = engine.submit_local_energy(configs[c]).get();
        for (std::size_t k = 0; k < result.values.size(); ++k)
          if (result.values[k] != golden[c][k]) ++mismatches;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ServeConcurrency, PerThreadSamplersShareOneFrozenModel) {
  constexpr std::size_t kThreads = 8;

  Made made(10, 12);
  randomize_parameters(made, 23);

  FastMadeSampler golden_sampler(made, 55);
  Matrix golden(40, 10);
  golden_sampler.sample(golden);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      FastMadeSampler sampler(made, 55);
      Matrix samples(40, 10);
      sampler.sample(samples);
      for (std::size_t i = 0; i < samples.size(); ++i)
        if (samples.data()[i] != golden.data()[i]) mismatches.fetch_add(1);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// Acceptance criterion: hot-swap under load is linearizable — every
// response is attributable to exactly one published snapshot version, and
// its payload matches that version's model exactly.  Clients submit a fixed
// canonical configuration while a publisher races new versions in; each
// response's value must equal the precomputed log-psi of the version it
// claims.
TEST(ServeConcurrency, HotSwapUnderLoadIsLinearizable) {
  constexpr std::size_t kVersions = 4;
  constexpr std::size_t kClients = 4;
  constexpr int kRequestsPerClient = 40;
  constexpr std::size_t kSpins = 9;

  std::vector<Made> models;
  models.reserve(kVersions);
  for (std::size_t v = 0; v < kVersions; ++v) {
    models.emplace_back(kSpins, 11);
    randomize_parameters(models.back(), 30 + v);
  }

  const Matrix canonical = random_configs(1, kSpins, 31);
  std::vector<Real> expected(kVersions + 1);
  for (std::size_t v = 0; v < kVersions; ++v) {
    Vector lp(1);
    models[v].log_psi(canonical, lp.span());
    expected[v + 1] = lp[0];  // versions are 1-based
  }

  ServeConfig config;
  config.workers = 2;
  config.max_batch_rows = 16;
  config.max_wait_us = 100;
  config.max_pending_rows = 1 << 20;  // never shed in this test
  InferenceEngine engine(config);
  engine.publish_model(models[0]);

  std::atomic<int> violations{0};
  std::atomic<std::uint64_t> max_version_seen{1};

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (int i = 0; i < kRequestsPerClient; ++i) {
        const EvalResult result = engine.submit_log_psi(canonical).get();
        if (result.model_version < 1 || result.model_version > kVersions ||
            result.values.size() != 1 ||
            result.values[0] != expected[result.model_version]) {
          violations.fetch_add(1);
        }
        std::uint64_t seen = max_version_seen.load();
        while (seen < result.model_version &&
               !max_version_seen.compare_exchange_weak(seen,
                                                       result.model_version)) {
        }
      }
    });
  }
  std::thread publisher([&] {
    for (std::size_t v = 1; v < kVersions; ++v) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      engine.publish_model(models[v]);
    }
  });
  for (auto& client : clients) client.join();
  publisher.join();
  engine.drain();

  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(engine.current_version(), kVersions);

  // Zero dropped-but-unreported requests: everything submitted was either
  // completed or failed with a typed error (here: nothing failed).
  const EngineCounters counters = engine.counters();
  EXPECT_EQ(counters.submitted, kClients * std::size_t(kRequestsPerClient));
  EXPECT_EQ(counters.completed + counters.failed, counters.submitted);
  EXPECT_EQ(counters.shed, 0u);
  EXPECT_EQ(counters.publishes, kVersions);
}

// Fleet acceptance criterion: eight threads hammer TWO named models while
// dedicated publishers race new versions into each chain independently.
// Every response must be attributable to exactly one (model, version) pair
// and match that pair's precomputed log-psi bitwise; a swap on one model
// must never bleed into the other.  Clients mix lanes so the weighted
// scheduler path is exercised under contention too.  Runs under TSan in CI.
TEST(ServeConcurrency, MultiModelHotSwapHammerKeepsChainsIndependent) {
  constexpr std::size_t kModels = 2;
  constexpr std::size_t kVersions = 3;
  constexpr std::size_t kClients = 6;  // + 2 publishers = 8 threads
  constexpr int kRequestsPerClient = 30;
  constexpr std::size_t kSpins = 8;

  const std::array<std::string, kModels> names = {"alpha", "beta"};
  std::array<std::vector<Made>, kModels> variants;
  for (std::size_t m = 0; m < kModels; ++m) {
    variants[m].reserve(kVersions);
    for (std::size_t v = 0; v < kVersions; ++v) {
      variants[m].emplace_back(kSpins, 10);
      randomize_parameters(variants[m].back(), 80 + 10 * m + v);
    }
  }

  const Matrix canonical = random_configs(1, kSpins, 81);
  // expected[m][v] is the golden log-psi of model m at 1-based version v.
  std::array<std::array<Real, kVersions + 1>, kModels> expected{};
  for (std::size_t m = 0; m < kModels; ++m) {
    for (std::size_t v = 0; v < kVersions; ++v) {
      Vector lp(1);
      variants[m][v].log_psi(canonical, lp.span());
      expected[m][v + 1] = lp[0];
    }
  }

  ServeConfig config;
  config.workers = 2;
  config.max_batch_rows = 16;
  config.max_wait_us = 100;
  config.max_pending_rows = 1 << 20;  // never shed in this test
  InferenceEngine engine(config);
  for (std::size_t m = 0; m < kModels; ++m)
    engine.publish_model(names[m], variants[m][0]);

  std::atomic<int> violations{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      RequestOptions options;
      options.model = names[c % kModels];
      options.tenant = (c % 2 == 0) ? "even" : "odd";
      options.priority = (c % 2 == 0) ? Priority::kInteractive
                                      : Priority::kBatch;
      const std::size_t m = c % kModels;
      for (int i = 0; i < kRequestsPerClient; ++i) {
        const EvalResult result =
            engine.submit_log_psi(canonical, options).get();
        if (result.model_version < 1 || result.model_version > kVersions ||
            result.values.size() != 1 ||
            result.values[0] != expected[m][result.model_version]) {
          violations.fetch_add(1);
        }
      }
    });
  }
  std::vector<std::thread> publishers;
  publishers.reserve(kModels);
  for (std::size_t m = 0; m < kModels; ++m) {
    publishers.emplace_back([&, m] {
      for (std::size_t v = 1; v < kVersions; ++v) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        engine.publish_model(names[m], variants[m][v]);
      }
    });
  }
  for (auto& client : clients) client.join();
  for (auto& publisher : publishers) publisher.join();
  engine.drain();

  EXPECT_EQ(violations.load(), 0);

  // Global and per-model accounting stay exact across the race.
  const EngineCounters counters = engine.counters();
  EXPECT_EQ(counters.submitted, kClients * std::size_t(kRequestsPerClient));
  EXPECT_EQ(counters.completed + counters.failed, counters.submitted);
  EXPECT_EQ(counters.shed, 0u);
  EXPECT_EQ(counters.quota_rejected, 0u);
  EXPECT_EQ(counters.publishes, kModels * kVersions);
  const auto model_counters = engine.model_counters();
  ASSERT_EQ(model_counters.size(), kModels);
  std::uint64_t per_model_submitted = 0;
  for (const auto& [name, mc] : model_counters) {
    EXPECT_EQ(mc.completed + mc.failed, mc.submitted) << name;
    EXPECT_EQ(mc.publishes, kVersions) << name;
    EXPECT_EQ(mc.version, kVersions) << name;
    EXPECT_EQ(engine.current_version(name), kVersions) << name;
    per_model_submitted += mc.submitted;
  }
  EXPECT_EQ(per_model_submitted, counters.submitted);
}

// Same race, sampling kind: a sampled batch must be bit-identical to a
// dedicated FastMadeSampler run against the *claimed* version's model.
TEST(ServeConcurrency, HotSwapSamplesAttributeToClaimedVersion) {
  constexpr std::size_t kVersions = 3;
  constexpr std::size_t kClients = 3;
  constexpr int kRequestsPerClient = 20;
  constexpr std::size_t kSpins = 8;
  constexpr std::size_t kRows = 6;

  std::vector<Made> models;
  models.reserve(kVersions);
  for (std::size_t v = 0; v < kVersions; ++v) {
    models.emplace_back(kSpins, 10);
    randomize_parameters(models.back(), 60 + v);
  }

  ServeConfig config;
  config.workers = 2;
  config.max_batch_rows = 24;
  config.max_wait_us = 100;
  config.max_pending_rows = 1 << 20;
  InferenceEngine engine(config);
  engine.publish_model(models[0]);

  struct Observation {
    std::uint64_t seed;
    std::uint64_t version;
    Matrix samples;
  };
  std::vector<std::vector<Observation>> per_client(kClients);

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kRequestsPerClient; ++i) {
        const std::uint64_t seed = 1000 * (c + 1) + std::uint64_t(i);
        SampleResult result = engine.submit_sample(kRows, seed).get();
        per_client[c].push_back(
            {seed, result.model_version, std::move(result.samples)});
      }
    });
  }
  std::thread publisher([&] {
    for (std::size_t v = 1; v < kVersions; ++v) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      engine.publish_model(models[v]);
    }
  });
  for (auto& client : clients) client.join();
  publisher.join();
  engine.drain();

  // Verify after the fact, against the model of the claimed version.
  std::map<std::pair<std::uint64_t, std::uint64_t>, Matrix> expected_cache;
  int violations = 0;
  for (const auto& observations : per_client) {
    for (const Observation& obs : observations) {
      ASSERT_GE(obs.version, 1u);
      ASSERT_LE(obs.version, kVersions);
      const auto key = std::make_pair(obs.version, obs.seed);
      auto it = expected_cache.find(key);
      if (it == expected_cache.end()) {
        FastMadeSampler sampler(models[obs.version - 1], obs.seed);
        Matrix expected(kRows, kSpins);
        sampler.sample(expected);
        it = expected_cache.emplace(key, std::move(expected)).first;
      }
      for (std::size_t i = 0; i < obs.samples.size(); ++i)
        if (obs.samples.data()[i] != it->second.data()[i]) {
          ++violations;
          break;
        }
    }
  }
  EXPECT_EQ(violations, 0);
}

}  // namespace
}  // namespace vqmc::serve
