/// \file serve.cpp
/// \brief serve_n1000: one InferenceEngine serving MADE n = 1000 (h = 239)
/// to sample, log-psi and local-energy requests (the last on a dense TIM
/// instance).
///
/// The run has two parts, each a few identical cycles so that its metrics
/// sample all of it. The first gives the end-to-end metrics. A cycle is a
/// closed-loop stretch (one client sends a sample request and waits for
/// the reply before sending the next) and drain bursts (pause the engine,
/// queue a backlog, resume and time the drain, which measures capacity);
/// the peak resident set is read after the last cycle. The second part gives
/// per-layer metrics: cycles of two open-loop segments of seeded Poisson
/// arrivals, timed from when each request was due (so a stall is charged
/// to every request behind it), at the nominal and the high rate, then a
/// local-energy open-loop phase. Open-loop traffic queues whenever the host
/// slows, which made its latency and the queue's memory vary too much
/// between runs to bound (vqmc_bench/README.md). A failed or shed request
/// counts as infinite latency. Threads: the calling thread generates
/// traffic, one thread collects open-loop completions, and the engine runs
/// 2 workers.
///
/// A drain burst is calibrated (reference.hpp) by a reading on worker-count
/// threads right after it. Latencies are wall times: most of a request's
/// latency is the batching window and thread wake-ups, which do not scale
/// with core speed, and the reference loop's speed did not predict them.

#include <sys/prctl.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <random>
#include <thread>
#include <tuple>

#include "common.hpp"
#include "reference.hpp"
#include "core/factory.hpp"
#include "hamiltonian/transverse_field_ising.hpp"
#include "nn/made.hpp"
#include "serve/inference_engine.hpp"

namespace vqmc_bench {

namespace {

using vqmc::Matrix;
using vqmc::Real;
using vqmc::serve::EvalResult;
using vqmc::serve::InferenceEngine;
using vqmc::serve::SampleResult;
using vqmc::telemetry::now_us;

enum Kind { kSample = 0, kLogPsi = 1, kLocalEnergy = 2 };

struct ServeSpec {
  std::size_t n = 1000;
  std::size_t rows = 4;           ///< rows per sample / log-psi request
  int cycles = 8;
  double closed_share = 0.1;      ///< of --seconds, summed over the cycles
  double nominal_rps = 6000;      ///< first open-loop step
  double high_rps = 10000;        ///< second open-loop step
  double nominal_share = 0.4;
  double high_share = 0.2;
  /// Mixed backlog per drain burst. Many short bursts: a burst's
  /// calibrated rate varied by about 10% between bursts of one run, so
  /// the median needs many of them.
  std::size_t burst_requests = 512;
  int bursts_per_cycle = 8;
  double energy_rps = 20;         ///< 1-row local-energy requests
  double energy_share = 0.15;
  double slo_ms = 10;             ///< p90 limit of serve.max_rps_at_slo
  std::size_t spot_checks = 16;
  std::size_t energy_spot_checks = 5;
};

ServeSpec serve_spec(bool smoke) {
  ServeSpec spec;
  if (smoke) {
    spec.n = 32;
    spec.cycles = 2;
    spec.nominal_rps = 1000;
    spec.high_rps = 2000;
    spec.burst_requests = 256;
    spec.energy_rps = 40;
    spec.energy_spot_checks = 3;
  }
  return spec;
}

vqmc::serve::ServeConfig engine_config(const vqmc::Hamiltonian* hamiltonian) {
  vqmc::serve::ServeConfig config;
  config.workers = 2;
  config.max_batch_rows = 64;
  config.max_wait_us = 1000;
  config.max_pending_rows = 65536;
  config.hamiltonian = hamiltonian;
  return config;
}

/// Deterministic stream for traffic and inputs (std::mt19937_64 with
/// hand-rolled transforms, so a seed names the same inputs everywhere).
class Stream {
 public:
  Stream(std::uint64_t seed, std::uint64_t tag) : gen_(seed * 1000003 + tag) {}
  std::uint64_t next() { return gen_(); }
  double exponential(double rate) {
    const double u = double(gen_() >> 11) * 0x1.0p-53;
    return -std::log1p(-u) / rate;
  }

 private:
  std::mt19937_64 gen_;
};

std::vector<Matrix> make_configs(Stream& stream, std::size_t count,
                                 std::size_t rows, std::size_t n) {
  std::vector<Matrix> configs;
  for (std::size_t i = 0; i < count; ++i) {
    Matrix m(rows, n);
    for (std::size_t j = 0; j < m.size(); ++j)
      m.data()[j] = Real(stream.next() & 1);
    configs.push_back(std::move(m));
  }
  return configs;
}

struct Request {
  Kind kind = kSample;
  double due_us = 0;        ///< offset from the segment start (open loop)
  std::uint64_t seed = 0;   ///< sample requests
  std::size_t config = 0;   ///< input index of eval requests
};

/// Poisson arrivals at `rate` for `seconds`, kinds drawn from `kinds`.
std::vector<Request> poisson(Stream& stream, double rate, double seconds,
                             const std::vector<Kind>& kinds,
                             std::size_t num_configs) {
  std::vector<Request> schedule;
  for (double t = stream.exponential(rate); t < seconds;
       t += stream.exponential(rate)) {
    Request r;
    r.kind = kinds[stream.next() % kinds.size()];
    r.due_us = t * 1e6;
    r.seed = stream.next();
    r.config = std::size_t(stream.next() % num_configs);
    schedule.push_back(r);
  }
  return schedule;
}

/// A backlog of `count` requests cycling through `kinds`.
std::vector<Request> backlog(Stream& stream, std::size_t count,
                             const std::vector<Kind>& kinds,
                             std::size_t num_configs) {
  std::vector<Request> requests(count);
  for (std::size_t i = 0; i < count; ++i) {
    requests[i].kind = kinds[i % kinds.size()];
    requests[i].seed = stream.next();
    requests[i].config = std::size_t(stream.next() % num_configs);
  }
  return requests;
}

/// One submitted request awaiting its future.
struct Pending {
  Request request;
  double due_us = 0;  ///< absolute
  std::future<SampleResult> sample;
  std::future<EvalResult> eval;

  /// True once the response is in, or at once for a shed request.
  [[nodiscard]] bool ready(std::chrono::microseconds timeout) const {
    if (sample.valid())
      return sample.wait_for(timeout) == std::future_status::ready;
    if (eval.valid())
      return eval.wait_for(timeout) == std::future_status::ready;
    return true;
  }
};

/// Tallies of a set of requests, and the responses kept for spot checks.
struct Outcomes {
  std::array<std::vector<double>, 3> latency_ms;  ///< per kind; inf = failed
  std::uint64_t attempted = 0, failed = 0, wrong_version = 0;
  double end_us = 0;  ///< last completion seen
  std::array<std::size_t, 3> keep{};  ///< responses still to keep, per kind
  std::vector<std::pair<Request, SampleResult>> samples;
  std::vector<std::pair<Request, EvalResult>> evals;

  [[nodiscard]] std::vector<double> all_ms() const {
    std::vector<double> all;
    for (const auto& v : latency_ms) all.insert(all.end(), v.begin(), v.end());
    return all;
  }
  void add_counts(const Outcomes& other) {
    attempted += other.attempted;
    failed += other.failed;
    wrong_version += other.wrong_version;
  }
};

/// Submit `r` (inputs from `configs`); a shed request has no future.
Pending submit(InferenceEngine& engine, const ServeSpec& spec,
               const std::vector<Matrix>& configs, const Request& r) {
  Pending p;
  p.request = r;
  try {
    switch (r.kind) {
      case kSample:
        p.sample = engine.submit_sample(spec.rows, r.seed);
        break;
      case kLogPsi:
        p.eval = engine.submit_log_psi(configs[r.config]);
        break;
      case kLocalEnergy:
        p.eval = engine.submit_local_energy(configs[r.config]);
        break;
    }
  } catch (const vqmc::serve::ServeError&) {
  }
  return p;
}

/// Collect one finished request; its latency runs from its due time to
/// `at_us`.
void collect(Pending& p, double at_us, Outcomes& out) {
  const Kind kind = p.request.kind;
  ++out.attempted;
  double latency = (at_us - p.due_us) * 1e-3;
  try {
    if (p.sample.valid()) {
      SampleResult result = p.sample.get();
      out.wrong_version += result.model_version == 1 ? 0 : 1;
      if (out.keep[kind] > 0) {
        --out.keep[kind];
        out.samples.emplace_back(p.request, std::move(result));
      }
    } else if (p.eval.valid()) {
      EvalResult result = p.eval.get();
      out.wrong_version += result.model_version == 1 ? 0 : 1;
      if (out.keep[kind] > 0) {
        --out.keep[kind];
        out.evals.emplace_back(p.request, std::move(result));
      }
    } else {
      throw vqmc::serve::ServeOverloadError("shed at admission");
    }
  } catch (const std::exception&) {
    ++out.failed;
    latency = std::numeric_limits<double>::infinity();
  }
  out.latency_ms[kind].push_back(latency);
  out.end_us = std::max(out.end_us, at_us);
}

/// One client for `seconds`: a sample request (seeded from `stream`), sent
/// when the previous reply has arrived and timed from submission to reply.
/// One kind only: sample and log-psi latencies differ by about 2x, and the
/// median of a mix fell between the two and moved with their proportions.
void run_closed_loop(InferenceEngine& engine, const ServeSpec& spec,
                     const std::vector<Matrix>& configs, Stream& stream,
                     double seconds, Outcomes& out) {
  const double end_us = now_us() + seconds * 1e6;
  do {
    Request r;
    r.kind = kSample;
    r.seed = stream.next();
    const double sent_us = now_us();
    Pending p = submit(engine, spec, configs, r);
    p.due_us = sent_us;
    if (p.sample.valid()) p.sample.wait();
    collect(p, now_us(), out);
  } while (now_us() < end_us);
}

struct Segment {
  double begin_us = 0;     ///< request due times count from here
  double end_us = 0;       ///< last completion
  double drain_lag_ms = 0; ///< last completion after the last due time
  double late_ms_max = 0;  ///< how late the generator submitted
};

/// One open-loop segment: this thread submits each request when due, a
/// completion thread stamps each response as soon as its future is ready.
Segment run_open_loop(InferenceEngine& engine, const ServeSpec& spec,
                      const std::vector<Request>& schedule,
                      const std::vector<Matrix>& configs, Outcomes& out) {
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<Pending> incoming;
  bool done = false;

  std::thread completion([&] {
    std::vector<Pending> open;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mutex);
        if (open.empty())
          cv.wait(lock, [&] { return !incoming.empty() || done; });
        for (Pending& p : incoming) open.push_back(std::move(p));
        incoming.clear();
        if (open.empty() && done) return;
      }
      if (open.empty()) continue;
      // Wake as soon as the oldest finishes; later ones that finished out
      // of order are stamped within the 100 us poll.
      (void)open.front().ready(std::chrono::microseconds(100));
      const double now = now_us();
      std::size_t kept = 0;
      for (std::size_t i = 0; i < open.size(); ++i) {
        if (open[i].ready(std::chrono::microseconds(0))) {
          collect(open[i], now, out);
        } else {
          if (kept != i) open[kept] = std::move(open[i]);
          ++kept;
        }
      }
      open.resize(kept);
    }
  });

  const auto stop_completion = [&] {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      done = true;
    }
    cv.notify_one();
    completion.join();
  };

  // Sleep precisely: the default 50 us timer slack would make every
  // submission late by about that much.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  Segment segment;
  segment.begin_us = now_us() + 1000;
  double last_due_us = segment.begin_us;
  try {
    for (const Request& r : schedule) {
      const double due = segment.begin_us + r.due_us;
      const double wait = due - now_us();
      if (wait > 0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::micro>(wait));
      }
      segment.late_ms_max =
          std::max(segment.late_ms_max, (now_us() - due) * 1e-3);
      Pending p = submit(engine, spec, configs, r);
      p.due_us = due;
      last_due_us = due;
      {
        const std::lock_guard<std::mutex> lock(mutex);
        incoming.push_back(std::move(p));
      }
      cv.notify_one();
    }
  } catch (...) {
    stop_completion();
    throw;
  }
  stop_completion();
  segment.end_us = std::max(out.end_us, last_due_us);
  segment.drain_lag_ms = (segment.end_us - last_due_us) * 1e-3;
  return segment;
}

struct Burst {
  double begin_us = 0, end_us = 0;
  double rows = 0;
  double batches = 0;
  double speed = 1;  ///< the workers' cores right after the drain
};

/// Pause, queue `requests`, resume and time the drain; then time the
/// reference loop on as many threads as the engine has workers, which
/// likely run where the busy workers just ran.
Burst run_burst(InferenceEngine& engine, const ServeSpec& spec,
                const std::vector<Request>& requests,
                const std::vector<Matrix>& configs, Outcomes& out) {
  engine.pause();
  std::vector<Pending> pending;
  pending.reserve(requests.size());
  Burst burst;
  for (const Request& r : requests) {
    pending.push_back(submit(engine, spec, configs, r));
    burst.rows += r.kind == kSample ? double(spec.rows)
                                    : double(configs[r.config].rows());
  }
  const std::uint64_t batches_before = engine.counters().batches;
  burst.begin_us = now_us();
  engine.resume();
  engine.drain();
  burst.end_us = now_us();
  burst.batches = double(engine.counters().batches - batches_before);
  burst.speed = machine_speed(int(engine.config().workers), 2 * kSpeedBlocks);
  for (Pending& p : pending) {
    p.due_us = burst.begin_us;
    collect(p, burst.end_us, out);
  }
  return burst;
}

/// Median over the bursts of rows drained per calibrated second.
double median_rows_per_s(const std::vector<Burst>& bursts) {
  std::vector<double> rates;
  for (const Burst& b : bursts)
    rates.push_back(b.rows / ((b.end_us - b.begin_us) * 1e-6 * b.speed));
  return median(rates);
}

double drain_mean_batch_rows(const std::vector<Burst>& bursts) {
  double rows = 0, batches = 0;
  for (const Burst& b : bursts) {
    rows += b.rows;
    batches += b.batches;
  }
  return batches > 0 ? rows / batches : 0;
}

/// Share of the drain windows the workers spent inside serve.batch spans.
double drain_coverage(const std::vector<vqmc::telemetry::TraceEvent>& events,
                      const std::vector<Burst>& bursts, double workers) {
  double busy = 0, window = 0;
  for (const Burst& b : bursts) {
    busy += span_us_within(events, "serve.batch", b.begin_us, b.end_us);
    window += b.end_us - b.begin_us;
  }
  return window > 0 ? busy / (workers * window) : 0;
}

/// Share of the open-loop segments the workers spent inside serve.batch.
double busy_frac(const std::vector<vqmc::telemetry::TraceEvent>& events,
                 const std::vector<Segment>& segments, double workers) {
  double busy = 0, window = 0;
  for (const Segment& s : segments) {
    busy += span_us_within(events, "serve.batch", s.begin_us, s.end_us);
    window += s.end_us - s.begin_us;
  }
  return window > 0 ? busy / (workers * window) : 0;
}

double max_late_ms(const std::vector<Segment>& segments) {
  double late = 0;
  for (const Segment& s : segments) late = std::max(late, s.late_ms_max);
  return late;
}

/// Everything one serving run owns. The engine is declared last so it is
/// destroyed (and its workers joined) before what it borrows.
struct ServeRig {
  std::unique_ptr<vqmc::TransverseFieldIsing> hamiltonian;
  std::unique_ptr<vqmc::WavefunctionModel> model;
  std::unique_ptr<InferenceEngine> engine;
};

/// Instance, model, engine, publish and warm-up requests of every kind.
std::unique_ptr<ServeRig> build_rig(const ServeSpec& spec, std::uint64_t seed) {
  auto rig = std::make_unique<ServeRig>();
  rig->model = vqmc::make_model("MADE", spec.n, 0, seed);
  rig->hamiltonian = std::make_unique<vqmc::TransverseFieldIsing>(
      vqmc::TransverseFieldIsing::random_dense(spec.n, seed));
  rig->engine =
      std::make_unique<InferenceEngine>(engine_config(rig->hamiltonian.get()));
  rig->engine->publish_model(dynamic_cast<const vqmc::Made&>(*rig->model));

  Stream stream(seed, 99);
  const std::vector<Matrix> warm = make_configs(stream, 2, spec.rows, spec.n);
  std::vector<std::future<SampleResult>> samples;
  std::vector<std::future<EvalResult>> evals;
  for (int i = 0; i < 32; ++i) {
    samples.push_back(rig->engine->submit_sample(spec.rows, stream.next()));
    evals.push_back(rig->engine->submit_log_psi(warm[std::size_t(i) % 2]));
  }
  for (const Matrix& row : make_configs(stream, 2, 1, spec.n))
    evals.push_back(rig->engine->submit_local_energy(row));
  for (auto& f : samples) (void)f.get();
  for (auto& f : evals) (void)f.get();
  return rig;
}

/// Bench-side local energy of the single row `x`:
/// l(x) = H_xx + sum_y H_xy exp(log psi(y) - log psi(x)).
double oracle_local_energy(const vqmc::Hamiltonian& hamiltonian,
                           const vqmc::serve::ModelSnapshot& snapshot,
                           const Matrix& x) {
  const std::size_t n = x.cols();
  std::vector<Real> log_x(1);
  snapshot.log_psi(x, log_x);
  std::vector<std::vector<Real>> connected;
  std::vector<Real> values;
  hamiltonian.for_each_off_diagonal(
      x.row(0), [&](std::span<const std::size_t> flips, Real value) {
        std::vector<Real> y(x.row(0).begin(), x.row(0).end());
        for (std::size_t site : flips) y[site] = 1 - y[site];
        connected.push_back(std::move(y));
        values.push_back(value);
      });
  Matrix ys(connected.size(), n);
  for (std::size_t k = 0; k < connected.size(); ++k)
    std::copy(connected[k].begin(), connected[k].end(), ys.row(k).begin());
  std::vector<Real> log_y(connected.size());
  snapshot.log_psi(ys, log_y);
  double energy = double(hamiltonian.diagonal(x.row(0)));
  for (std::size_t k = 0; k < values.size(); ++k)
    energy += double(values[k]) * std::exp(double(log_y[k] - log_x[0]));
  return energy;
}

bool bits_equal(const Real* a, const Real* b, std::size_t count) {
  return std::memcmp(a, b, count * sizeof(Real)) == 0;
}

}  // namespace

Report run_serve_n1000(const Options& options, const PassPlan& plan) {
  const ServeSpec spec = serve_spec(options.smoke);
  Report report;
  std::vector<double> setup_s;
  double t0 = now_s();
  const std::unique_ptr<ServeRig> rig = build_rig(spec, options.seed);
  setup_s.push_back((now_s() - t0) * core_speed());
  InferenceEngine& engine = *rig->engine;
  const std::vector<Kind> kinds = {kSample, kLogPsi};
  Stream stream(options.seed, 1);
  const std::vector<Matrix> configs =
      make_configs(stream, 64, spec.rows, spec.n);
  const std::vector<Matrix> rows = make_configs(stream, 256, 1, spec.n);
  const double closed_s = plan.seconds * spec.closed_share / spec.cycles;
  const double nominal_s = plan.seconds * spec.nominal_share / spec.cycles;
  const double high_s = plan.seconds * spec.high_share / spec.cycles;

  if (plan.traced) start_tracer();
  Outcomes closed, drained, nominal, high, energy;
  nominal.keep = {spec.spot_checks, spec.spot_checks, 0};
  energy.keep = {0, 0, spec.energy_spot_checks};
  std::vector<Segment> nominal_segments, high_segments;
  std::vector<Burst> bursts;
  // Its own stream: how many closed-loop requests fit varies, and the
  // other inputs must not.
  Stream closed_stream(options.seed, 3);
  for (int c = 0; c < spec.cycles; ++c) {
    run_closed_loop(engine, spec, configs, closed_stream, closed_s, closed);
    for (int b = 0; b < spec.bursts_per_cycle; ++b) {
      bursts.push_back(run_burst(
          engine, spec,
          backlog(stream, spec.burst_requests, kinds, configs.size()),
          configs, drained));
    }
  }
  // Read before the open-loop phases, whose queues grow when the host
  // slows, and before the remaining set-ups are timed.
  report.e2e("peak_rss_mb", peak_rss_mb());

  double nominal_batches = 0;
  for (int c = 0; c < spec.cycles; ++c) {
    const std::uint64_t batches_before = engine.counters().batches;
    nominal_segments.push_back(run_open_loop(
        engine, spec,
        poisson(stream, spec.nominal_rps, nominal_s, kinds, configs.size()),
        configs, nominal));
    engine.drain();
    nominal_batches += double(engine.counters().batches - batches_before);
    high_segments.push_back(run_open_loop(
        engine, spec,
        poisson(stream, spec.high_rps, high_s, kinds, configs.size()), configs,
        high));
    engine.drain();
  }
  // Long enough for the spot checks even in a short run.
  const double energy_s =
      std::max(plan.seconds * spec.energy_share,
               3.0 * double(spec.energy_spot_checks) / spec.energy_rps);
  const Segment energy_segment = run_open_loop(
      engine, spec,
      poisson(stream, spec.energy_rps, energy_s, {kLocalEnergy}, rows.size()),
      rows, energy);
  engine.drain();
  if (plan.traced) vqmc::telemetry::Tracer::instance().stop();

  Outcomes all = nominal;
  for (const Outcomes* o : {&closed, &drained, &high, &energy})
    all.add_counts(*o);
  const vqmc::serve::EngineCounters counters = engine.counters();
  report.attempted = all.attempted;
  report.failed = all.failed;
  report.check("serve.accounting_exact",
               counters.submitted == counters.completed + counters.failed,
               std::to_string(counters.submitted) + " submitted, " +
                   std::to_string(counters.completed) + " completed, " +
                   std::to_string(counters.failed) + " failed");
  report.check("serve.all_version_1", all.wrong_version == 0);
  report.check("serve.no_failed_requests", all.failed == 0,
               std::to_string(all.failed) + " failed or shed");

  // Spot checks: sample and log-psi responses bit-identical to the
  // published snapshot, local energies equal to the bench-side oracle.
  const auto snapshot = engine.current_snapshot();
  bool samples_equal = nominal.samples.size() == spec.spot_checks;
  for (const auto& [request, result] : nominal.samples) {
    Matrix expect(spec.rows, spec.n);
    snapshot->sample(expect, request.seed);
    samples_equal =
        samples_equal && result.samples.size() == expect.size() &&
        bits_equal(result.samples.data(), expect.data(), expect.size());
  }
  bool log_psi_equal = nominal.evals.size() == spec.spot_checks;
  for (const auto& [request, result] : nominal.evals) {
    std::vector<Real> expect(spec.rows);
    snapshot->log_psi(configs[request.config], expect);
    log_psi_equal =
        log_psi_equal && result.values.size() == expect.size() &&
        bits_equal(result.values.data(), expect.data(), expect.size());
  }
  double worst = energy.evals.size() == spec.energy_spot_checks ? 0 : 1;
  for (const auto& [request, result] : energy.evals) {
    const double expect =
        oracle_local_energy(*rig->hamiltonian, *snapshot, rows[request.config]);
    worst = std::max(worst, result.values.size() == 1
                                ? std::abs(double(result.values[0]) - expect) /
                                      std::abs(expect)
                                : 1.0);
  }
  report.check("serve.sample_bits_match_snapshot", samples_equal);
  report.check("serve.log_psi_bits_match_snapshot", log_psi_equal);
  report.check("serve.local_energy_matches_oracle", worst <= 1e-9,
               "worst relative difference " + std::to_string(worst));

  const std::span<const Real> params = rig->model->parameters();
  report.params_fnv = fnv_of(std::vector<double>(params.begin(), params.end()));
  const double rows_per_s = median_rows_per_s(bursts);
  report.seconds_per_unit = 1 / rows_per_s;
  const std::vector<double> headline_ms = closed.all_ms();
  report.e2e("rows_per_s", rows_per_s);
  report.e2e("latency_p50_ms", quantile(headline_ms, 0.5));
  for (int r = 1; r < plan.setup_repeats; ++r) {
    t0 = now_s();
    build_rig(spec, options.seed);
    setup_s.push_back((now_s() - t0) * core_speed());
  }
  report.e2e("setup_s", median(setup_s));

  if (!plan.traced) return report;

  const auto events = vqmc::telemetry::Tracer::instance().events();
  const double workers = double(engine.config().workers);
  std::vector<double> speeds;
  for (const Burst& b : bursts) speeds.push_back(b.speed);
  report.layer("run.latency_p90_ms", quantile(headline_ms, 0.9));
  report.layer("run.wall_latency_p50_ms", quantile(headline_ms, 0.5));
  report.layer("host.speed", median(speeds));
  const auto& sample_ms = nominal.latency_ms[kSample];
  const auto& log_psi_ms = nominal.latency_ms[kLogPsi];
  report.layer("serve.sample_p50_ms", quantile(sample_ms, 0.5));
  report.layer("serve.sample_p90_ms", quantile(sample_ms, 0.9));
  report.layer("serve.log_psi_p50_ms", quantile(log_psi_ms, 0.5));
  report.layer("serve.log_psi_p90_ms", quantile(log_psi_ms, 0.9));
  report.layer("serve.high_p50_ms", quantile(high.all_ms(), 0.5));
  report.layer("serve.high_p90_ms", quantile(high.all_ms(), 0.9));
  report.layer("serve.local_energy_p50_ms", quantile(energy.all_ms(), 0.5));
  report.layer("serve.local_energy_p90_ms", quantile(energy.all_ms(), 0.9));
  // Highest rate whose p90 meets the limit with nothing failed and every
  // segment's backlog cleared within the limit after its last arrival.
  double max_rps = 0;
  for (const auto& [rps, segments, out] :
       {std::tuple{spec.nominal_rps, &nominal_segments, &nominal},
        std::tuple{spec.high_rps, &high_segments, &high}}) {
    bool met = quantile(out->all_ms(), 0.9) <= spec.slo_ms && out->failed == 0;
    for (const Segment& s : *segments)
      met = met && s.drain_lag_ms <= spec.slo_ms;
    if (met) max_rps = std::max(max_rps, rps);
  }
  report.layer("serve.max_rps_at_slo", max_rps);
  std::vector<Segment> segments = nominal_segments;
  segments.insert(segments.end(), high_segments.begin(), high_segments.end());
  segments.push_back(energy_segment);
  report.layer("serve.generator_late_ms_max", max_late_ms(segments));
  report.layer("serve.shed", double(counters.shed));
  report.layer("serve.mean_batch_rows",
               double(nominal.attempted * spec.rows) / nominal_batches);
  report.layer("serve.drain_mean_batch_rows", drain_mean_batch_rows(bursts));
  report.layer("serve.worker_busy_frac",
               busy_frac(events, nominal_segments, workers));
  report.layer("trace.coverage", drain_coverage(events, bursts, workers));

  // Service time alone: single requests, one at a time, on the idle engine.
  report.layer("serve.local_energy_service_ms",
               probe_us([&] {
                 (void)engine.submit_local_energy(rows.front()).get();
               }, 0, 5) * 1e-3);
  // Snapshot probes: microseconds per row of 64-row calls.
  Stream probe_stream(options.seed, 7);
  const Matrix batch = make_configs(probe_stream, 1, 64, spec.n).front();
  std::vector<Real> out(64);
  Matrix drawn(64, spec.n);
  report.layer("snapshot.log_psi_us_per_row",
               probe_us([&] { snapshot->log_psi(batch, out); }) / 64);
  report.layer("snapshot.sample_us_per_row",
               probe_us([&] { snapshot->sample(drawn, options.seed); }) / 64);
  return report;
}

}  // namespace vqmc_bench
