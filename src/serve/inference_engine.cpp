#include "serve/inference_engine.hpp"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "core/local_energy.hpp"
#include "telemetry/metrics_registry.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/tracer.hpp"

namespace vqmc::serve {

namespace {

/// The batching window is consumed in slices of max_wait_us / kWindowSlices
/// so the adaptive close (see worker_loop) can detect a stalled window
/// without turning every lone request into its own batch: open-loop bursts
/// arriving within a slice still coalesce, while a closed-loop stall costs
/// at most one slice of idle wait instead of the whole window.
constexpr std::size_t kWindowSlices = 8;

/// Per-kind batch counter names, literals so that the lookup builds no
/// string.
const char* batches_metric(int kind) {
  switch (kind) {
    case 0:
      return "serve.batches.sample";
    case 1:
      return "serve.batches.log_psi";
    default:
      return "serve.batches.local_energy";
  }
}

/// Labeled lane-latency family names, built once (the label body lives
/// inside the registry name; the obs renderer splits it back out).
const std::string& lane_latency_metric(Priority priority) {
  static const std::string interactive = telemetry::labeled_name(
      "serve.lane.latency_seconds", {{"lane", "interactive"}});
  static const std::string batch = telemetry::labeled_name(
      "serve.lane.latency_seconds", {{"lane", "batch"}});
  return priority == Priority::kInteractive ? interactive : batch;
}

void raise_max(std::atomic<std::uint64_t>& slot, std::uint64_t value) {
  std::uint64_t seen = slot.load(std::memory_order_relaxed);
  while (seen < value && !slot.compare_exchange_weak(
                             seen, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

InferenceEngine::InferenceEngine(ServeConfig config)
    : config_(std::move(config)),
      scheduler_(SchedulerConfig{config_.interactive_weight,
                                 config_.batch_weight,
                                 config_.tenant_quotas}) {
  VQMC_REQUIRE(config_.workers >= 1, "serve: need at least one worker");
  VQMC_REQUIRE(config_.max_batch_rows >= 1,
               "serve: micro-batch budget must be positive");
  VQMC_REQUIRE(config_.max_pending_rows >= config_.max_batch_rows,
               "serve: admission bound below the micro-batch budget");
  VQMC_REQUIRE(config_.max_wait_us >= 0, "serve: negative batching window");
  VQMC_REQUIRE(!config_.default_model.empty(),
               "serve: default model name must not be empty");
  VQMC_REQUIRE(!config_.default_tenant.empty(),
               "serve: default tenant id must not be empty");
  workers_.reserve(config_.workers);
  for (std::size_t w = 0; w < config_.workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

InferenceEngine::~InferenceEngine() { shutdown(); }

InferenceEngine::ModelState& InferenceEngine::ensure_model_state(
    const std::string& name) {
  VQMC_REQUIRE(!name.empty(), "serve: model name must not be empty");
  std::lock_guard<std::mutex> lock(registry_mutex_);
  std::unique_ptr<ModelState>& slot = model_states_[name];
  if (slot == nullptr) {
    slot = std::make_unique<ModelState>(fleet_.ensure(name));
    slot->batch_rows_metric =
        telemetry::labeled_name("serve.model.batch_rows", {{"model", name}});
  }
  return *slot;
}

InferenceEngine::TenantState& InferenceEngine::ensure_tenant_state(
    const std::string& name) {
  VQMC_REQUIRE(!name.empty(), "serve: tenant id must not be empty");
  std::lock_guard<std::mutex> lock(registry_mutex_);
  std::unique_ptr<TenantState>& slot = tenant_states_[name];
  if (slot == nullptr) {
    slot = std::make_unique<TenantState>();
    slot->latency_metric = telemetry::labeled_name(
        "serve.tenant.latency_seconds", {{"tenant", name}});
  }
  return *slot;
}

std::uint64_t InferenceEngine::publish(
    const std::string& model_name,
    std::shared_ptr<const ModelSnapshot> snapshot) {
  ModelState& state = ensure_model_state(model_name);
  const std::uint64_t version = state.chain->publish(std::move(snapshot));
  publishes_.fetch_add(1, std::memory_order_relaxed);
  if (telemetry::enabled()) {
    telemetry::metrics().counter("serve.publishes").add();
  }
  return version;
}

std::uint64_t InferenceEngine::publish(
    std::shared_ptr<const ModelSnapshot> snapshot) {
  return publish(config_.default_model, std::move(snapshot));
}

std::uint64_t InferenceEngine::publish_model(const std::string& model_name,
                                             const Made& model) {
  return publish(model_name, ModelSnapshot::from_model(model));
}

std::uint64_t InferenceEngine::publish_model(const Made& model) {
  return publish_model(config_.default_model, model);
}

std::uint64_t InferenceEngine::publish_checkpoint(
    const std::string& model_name, const TrainingSnapshot& snapshot) {
  return publish(model_name, ModelSnapshot::from_training_snapshot(snapshot));
}

std::uint64_t InferenceEngine::publish_checkpoint(
    const TrainingSnapshot& snapshot) {
  return publish_checkpoint(config_.default_model, snapshot);
}

std::shared_ptr<const ModelSnapshot> InferenceEngine::current_snapshot(
    const std::string& model_name) const {
  const FleetModel* model = fleet_.find(model_name);
  if (model == nullptr) return nullptr;
  const auto published = model->current();
  return published == nullptr ? nullptr : published->snapshot;
}

std::shared_ptr<const ModelSnapshot> InferenceEngine::current_snapshot()
    const {
  return current_snapshot(config_.default_model);
}

std::uint64_t InferenceEngine::current_version(
    const std::string& model_name) const {
  const FleetModel* model = fleet_.find(model_name);
  return model == nullptr ? 0 : model->current_version();
}

std::uint64_t InferenceEngine::current_version() const {
  return current_version(config_.default_model);
}

std::vector<std::string> InferenceEngine::model_names() const {
  return fleet_.names();
}

std::future<SampleResult> InferenceEngine::submit_sample(
    std::size_t count, std::uint64_t seed, const RequestOptions& options) {
  VQMC_REQUIRE(count > 0, "serve: sample count must be positive");
  auto request = std::make_unique<Request>();
  request->request_kind = Kind::Sample;
  request->rows = count;
  request->seed = seed;
  return enqueue_sample(std::move(request), options);
}

std::future<SampleResult> InferenceEngine::submit_sample(std::size_t count,
                                                         std::uint64_t seed,
                                                         double timeout_us) {
  RequestOptions options;
  options.timeout_us = timeout_us;
  return submit_sample(count, seed, options);
}

std::future<EvalResult> InferenceEngine::submit_log_psi(
    Matrix configs, const RequestOptions& options) {
  auto request = std::make_unique<Request>();
  request->request_kind = Kind::LogPsi;
  request->rows = configs.rows();
  request->configs = std::move(configs);
  return enqueue_eval(std::move(request), options);
}

std::future<EvalResult> InferenceEngine::submit_log_psi(Matrix configs,
                                                        double timeout_us) {
  RequestOptions options;
  options.timeout_us = timeout_us;
  return submit_log_psi(std::move(configs), options);
}

std::future<EvalResult> InferenceEngine::submit_local_energy(
    Matrix configs, const RequestOptions& options) {
  VQMC_REQUIRE(config_.hamiltonian != nullptr,
               "serve: engine was configured without a Hamiltonian; "
               "local-energy requests are unavailable");
  auto request = std::make_unique<Request>();
  request->request_kind = Kind::LocalEnergy;
  request->rows = configs.rows();
  request->configs = std::move(configs);
  return enqueue_eval(std::move(request), options);
}

std::future<EvalResult> InferenceEngine::submit_local_energy(
    Matrix configs, double timeout_us) {
  RequestOptions options;
  options.timeout_us = timeout_us;
  return submit_local_energy(std::move(configs), options);
}

std::future<SampleResult> InferenceEngine::enqueue_sample(
    std::unique_ptr<Request> request, const RequestOptions& options) {
  std::future<SampleResult> future = request->sample_promise.get_future();
  admit(std::move(request), options);
  return future;
}

std::future<EvalResult> InferenceEngine::enqueue_eval(
    std::unique_ptr<Request> request, const RequestOptions& options) {
  std::future<EvalResult> future = request->eval_promise.get_future();
  admit(std::move(request), options);
  return future;
}

void InferenceEngine::admit(std::unique_ptr<Request> request,
                            const RequestOptions& options) {
  const std::string& model_name =
      options.model.empty() ? config_.default_model : options.model;
  const std::string& tenant =
      options.tenant.empty() ? config_.default_tenant : options.tenant;
  VQMC_REQUIRE(request->rows > 0, "serve: empty request");
  VQMC_REQUIRE(options.timeout_us >= 0, "serve: negative request timeout");

  ModelState& model_state = ensure_model_state(model_name);
  TenantState& tenant_state = ensure_tenant_state(tenant);
  const auto published = model_state.chain->current();
  VQMC_REQUIRE(published != nullptr,
               "serve: model '" + model_name +
                   "' has no published snapshot; publish one first");
  if (request->request_kind != Kind::Sample) {
    VQMC_REQUIRE(
        request->configs.cols() == published->snapshot->num_spins(),
        "serve: request configurations have the wrong spin count for "
        "model '" +
            model_name + "'");
  }
  request->model = &model_state;
  request->kind = int(request->request_kind);
  request->priority = options.priority;
  request->model_state = &model_state;
  request->tenant_state = &tenant_state;

  const std::size_t rows = request->rows;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      throw ServeShutdownError("serve: engine is shut down");
    }
    // Overload is checked before the quota: a shed request must not burn
    // tenant tokens (the engine, not the tenant, lacked capacity).
    if (pending_rows_ + rows > config_.max_pending_rows) {
      shed_.fetch_add(1, std::memory_order_relaxed);
      tenant_state.shed.fetch_add(1, std::memory_order_relaxed);
      if (telemetry::enabled()) {
        telemetry::metrics().counter("serve.shed").add();
      }
      throw ServeOverloadError(
          "serve: overloaded — request of " + std::to_string(rows) +
          " rows from tenant '" + tenant + "' rejected: " +
          std::to_string(pending_rows_) +
          " rows outstanding against the max_pending_rows limit of " +
          std::to_string(config_.max_pending_rows));
    }
    const double now_us = telemetry::now_us();
    const QuotaDecision decision = scheduler_.try_admit(tenant, rows, now_us);
    if (!decision.admitted) {
      quota_rejected_.fetch_add(1, std::memory_order_relaxed);
      tenant_state.quota_rejected.fetch_add(1, std::memory_order_relaxed);
      if (telemetry::enabled()) {
        telemetry::metrics().counter("serve.quota_rejected").add();
      }
      throw ServeQuotaError(
          "serve: quota exhausted for tenant '" + tenant + "' — request of " +
          std::to_string(rows) + " rows, " +
          std::to_string(decision.available_rows) +
          " rows available (rate " +
          std::to_string(decision.quota->rows_per_second) +
          " rows/s, burst " + std::to_string(decision.quota->burst_rows) +
          " rows); no tokens were consumed");
    }
    request->enqueue_us = now_us;
    if (options.timeout_us > 0) {
      request->deadline_us = now_us + options.timeout_us;
    }
    scheduler_.enqueue(std::move(request));
    pending_rows_ += rows;
    submitted_.fetch_add(1, std::memory_order_relaxed);
    model_state.submitted.fetch_add(1, std::memory_order_relaxed);
    tenant_state.submitted.fetch_add(1, std::memory_order_relaxed);
    if (telemetry::enabled()) {
      telemetry::MetricsRegistry& registry = telemetry::metrics();
      registry.counter("serve.requests").add();
      registry.gauge("serve.queue_rows").set(double(scheduler_.queued_rows()));
    }
  }
  work_cv_.notify_one();
}

void InferenceEngine::worker_loop() {
  // Per-worker model workspace and batch scratch: activation and batch
  // buffers stop allocating once batch shapes stabilize, and stay private
  // to this thread.
  Made::Workspace ws;
  BatchScratch scratch;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [this] {
      return stopping_ || (!scheduler_.empty() && !paused_);
    });
    if (scheduler_.empty() || (paused_ && !stopping_)) {
      if (stopping_) return;
      continue;
    }

    BatchPlan plan = scheduler_.open_batch(config_.max_batch_rows);
    if (plan.empty()) continue;

    // The window is anchored at the oldest member's arrival and clamped by
    // the batch's earliest deadline — the engine never idles a near-deadline
    // request past its budget just to coalesce more traffic.  grow_batch can
    // pull in an earlier deadline, so the bound is recomputed every slice.
    const auto window_end_us = [&] {
      return std::min(plan.oldest_enqueue_us + config_.max_wait_us,
                      plan.earliest_deadline_us);
    };

    // Hold the batch open for late co-batchable arrivals until the window
    // closes or the row budget fills.  Shutdown collapses the window so the
    // backlog drains promptly.  The wait is sliced: a slice that elapses
    // with no growth while every outstanding row is already in this batch
    // means every producer is blocked on this very dispatch (closed-loop
    // traffic), so the rest of the window cannot fill and is forfeited.
    // Waiting the window out regardless used to cap the coalescing gain
    // below 1 at max_batch_rows=128 / max_wait_us=4000 in the serve bench.
    const double slice_us = config_.max_wait_us / double(kWindowSlices);
    while (!stopping_ && plan.rows < config_.max_batch_rows) {
      const double now = telemetry::now_us();
      if (now >= window_end_us()) break;
      const std::size_t rows_before = plan.rows;
      work_cv_.wait_for(lock,
                        std::chrono::duration<double, std::micro>(
                            std::min(slice_us, window_end_us() - now)));
      scheduler_.grow_batch(plan, config_.max_batch_rows);
      if (plan.rows == rows_before && pending_rows_ == plan.rows) break;
    }

    if (telemetry::enabled()) {
      telemetry::metrics().gauge("serve.queue_rows")
          .set(double(scheduler_.queued_rows()));
    }
    lock.unlock();
    // Record the high-water batch occupancy, engine-wide and per model (the
    // saturation tests pin that a backed-up queue fills max_batch_rows-row
    // batches).
    raise_max(max_batch_rows_, plan.rows);
    raise_max(static_cast<Request&>(*plan.requests.front())
                  .model_state->max_batch_rows,
              plan.rows);
    const std::size_t rows = plan.rows;
    execute_batch(plan, ws, scratch);
    finish_rows(rows);
    lock.lock();
  }
}

void InferenceEngine::finish_rows(std::size_t rows) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    pending_rows_ -= rows;
  }
  drain_cv_.notify_all();
}

void InferenceEngine::fail_request(Request& request,
                                   std::exception_ptr error) {
  // Count before fulfilling (see execute_batch): a client unblocked by the
  // future must already see itself in counters().failed.
  failed_.fetch_add(1, std::memory_order_relaxed);
  request.model_state->failed.fetch_add(1, std::memory_order_relaxed);
  request.tenant_state->failed.fetch_add(1, std::memory_order_relaxed);
  if (request.request_kind == Kind::Sample) {
    request.sample_promise.set_exception(error);
  } else {
    request.eval_promise.set_exception(error);
  }
}

void InferenceEngine::execute_batch(BatchPlan& plan, Made::Workspace& ws,
                                    BatchScratch& scratch) {
  TELEMETRY_SPAN("serve.batch");
  // The scheduler guarantees a single-model, single-kind batch; bind it to
  // exactly one published version of that model — every response below is
  // attributable to this snapshot and no other.
  Request& first = static_cast<Request&>(*plan.requests.front());
  ModelState& model_state = *first.model_state;
  const Kind kind = first.request_kind;
  const auto published = model_state.chain->current();
  const std::uint64_t version = published->version;
  const ModelSnapshot& snapshot = *published->snapshot;
  const double start_us = telemetry::now_us();

  // Expired requests are failed (reported!) up front and excluded from the
  // compute batch — a deadline miss never costs wasted kernel work.
  std::vector<Request*> live;
  live.reserve(plan.requests.size());
  std::size_t live_rows = 0;
  for (auto& queued : plan.requests) {
    Request* request = static_cast<Request*>(queued.get());
    if (request->deadline_us < start_us) {
      fail_request(*request,
                   std::make_exception_ptr(ServeDeadlineError(
                       "serve: deadline expired before dispatch (model '" +
                       model_state.chain->name() + "')")));
      if (telemetry::enabled()) {
        telemetry::metrics().counter("serve.deadline_expired").add();
      }
    } else {
      live.push_back(request);
      live_rows += request->rows;
    }
  }
  batches_.fetch_add(1, std::memory_order_relaxed);
  model_state.batches.fetch_add(1, std::memory_order_relaxed);
  if (telemetry::enabled()) {
    telemetry::MetricsRegistry& registry = telemetry::metrics();
    registry.counter("serve.batches").add();
    registry.counter(batches_metric(int(kind))).add();
    registry.histogram("serve.batch_rows").observe(double(plan.rows));
    registry.histogram(model_state.batch_rows_metric)
        .observe(double(plan.rows));
  }
  if (live.empty()) return;

  const auto complete = [this](Request& request, double end_us) {
    // Count before fulfilling: a client unblocked by the future must
    // already see itself in counters().completed.
    completed_.fetch_add(1, std::memory_order_relaxed);
    request.model_state->completed.fetch_add(1, std::memory_order_relaxed);
    request.tenant_state->completed.fetch_add(1, std::memory_order_relaxed);
    if (telemetry::enabled()) {
      telemetry::MetricsRegistry& registry = telemetry::metrics();
      const double latency_s = (end_us - request.enqueue_us) * 1e-6;
      registry.counter("serve.responses").add();
      registry.histogram("serve.latency_seconds").observe(latency_s);
      registry.histogram(lane_latency_metric(request.priority))
          .observe(latency_s);
      registry.histogram(request.tenant_state->latency_metric)
          .observe(latency_s);
    }
  };

  try {
    const std::size_t n = snapshot.num_spins();
    if (kind == Kind::Sample) {
      // One ancestral pass over the sites serves every request; each
      // request's rows consume its own seed stream (bit-identical to a
      // dedicated FastMadeSampler).
      ensure_shape(scratch.sample_out, live_rows, n);
      Matrix& out = scratch.sample_out;
      scratch.gens.clear();
      scratch.gens.reserve(live.size());
      for (const Request* request : live) scratch.gens.emplace_back(request->seed);
      scratch.slices.resize(live.size());
      std::size_t row = 0;
      for (std::size_t r = 0; r < live.size(); ++r) {
        scratch.slices[r] = {row, live[r]->rows, &scratch.gens[r]};
        row += live[r]->rows;
      }
      const std::uint64_t nonfinite = snapshot.sample(out, scratch.slices, ws);
      nonfinite_draws_.fetch_add(nonfinite, std::memory_order_relaxed);
      if (telemetry::enabled()) {
        // Created unconditionally (add(0) registers the instrument) so the
        // health guards can attribute sick batches to the model, not the
        // engine.
        telemetry::metrics().counter("serve.nonfinite_draws").add(nonfinite);
      }
      const double end_us = telemetry::now_us();
      row = 0;
      for (Request*& request : live) {
        SampleResult result;
        result.samples = Matrix(request->rows, n);
        std::copy_n(out.data() + row * n, request->rows * n,
                    result.samples.data());
        result.model_version = version;
        row += request->rows;
        complete(*request, end_us);
        request->sample_promise.set_value(std::move(result));
        request = nullptr;  // fulfilled; the catch below must skip it
      }
    } else {
      // Stack the request configurations into one forward batch.
      ensure_shape(scratch.stacked, live_rows, n);
      Matrix& all = scratch.stacked;
      std::size_t row = 0;
      for (const Request* request : live) {
        std::copy_n(request->configs.data(), request->rows * n,
                    all.data() + row * n);
        row += request->rows;
      }
      scratch.values.resize(live_rows);
      std::vector<Real>& values = scratch.values;
      if (kind == Kind::LogPsi) {
        snapshot.log_psi(all, values, ws);
      } else {
        if (scratch.local_energy) {
          scratch.local_energy->bind(snapshot.model());
        } else {
          scratch.local_energy = std::make_unique<LocalEnergyEngine>(
              *config_.hamiltonian, snapshot.model());
        }
        scratch.local_energy->compute(all, values);
      }
      const double end_us = telemetry::now_us();
      row = 0;
      for (Request*& request : live) {
        EvalResult result;
        result.values.assign(values.begin() + std::ptrdiff_t(row),
                             values.begin() +
                                 std::ptrdiff_t(row + request->rows));
        result.model_version = version;
        row += request->rows;
        complete(*request, end_us);
        request->eval_promise.set_value(std::move(result));
        request = nullptr;  // fulfilled; the catch below must skip it
      }
    }
  } catch (...) {
    // A kernel-level failure fails every not-yet-fulfilled request in the
    // batch — each future observes the error, so nothing is dropped
    // unreported.
    const std::exception_ptr error = std::current_exception();
    for (Request* request : live) {
      if (request != nullptr) fail_request(*request, error);
    }
  }
}

void InferenceEngine::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  drain_cv_.wait(lock, [this] { return pending_rows_ == 0; });
}

void InferenceEngine::pause() {
  std::lock_guard<std::mutex> lock(mutex_);
  paused_ = true;
}

void InferenceEngine::resume() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    paused_ = false;
  }
  work_cv_.notify_all();
}

void InferenceEngine::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      // Idempotent: a second shutdown only needs the joins below to have
      // happened, which the first call guarantees.
      return;
    }
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

EngineCounters InferenceEngine::counters() const {
  EngineCounters counters;
  counters.submitted = submitted_.load(std::memory_order_relaxed);
  counters.completed = completed_.load(std::memory_order_relaxed);
  counters.failed = failed_.load(std::memory_order_relaxed);
  counters.shed = shed_.load(std::memory_order_relaxed);
  counters.quota_rejected = quota_rejected_.load(std::memory_order_relaxed);
  counters.batches = batches_.load(std::memory_order_relaxed);
  counters.publishes = publishes_.load(std::memory_order_relaxed);
  counters.max_batch_rows = max_batch_rows_.load(std::memory_order_relaxed);
  counters.nonfinite_draws = nonfinite_draws_.load(std::memory_order_relaxed);
  return counters;
}

std::vector<std::pair<std::string, ModelCounters>>
InferenceEngine::model_counters() const {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  std::vector<std::pair<std::string, ModelCounters>> out;
  out.reserve(model_states_.size());
  for (const auto& [name, state] : model_states_) {
    ModelCounters c;
    c.submitted = state->submitted.load(std::memory_order_relaxed);
    c.completed = state->completed.load(std::memory_order_relaxed);
    c.failed = state->failed.load(std::memory_order_relaxed);
    c.batches = state->batches.load(std::memory_order_relaxed);
    c.publishes = state->chain->publishes();
    c.version = state->chain->current_version();
    c.max_batch_rows = state->max_batch_rows.load(std::memory_order_relaxed);
    out.emplace_back(name, c);
  }
  return out;
}

std::vector<std::pair<std::string, TenantCounters>>
InferenceEngine::tenant_counters() const {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  std::vector<std::pair<std::string, TenantCounters>> out;
  out.reserve(tenant_states_.size());
  for (const auto& [name, state] : tenant_states_) {
    TenantCounters c;
    c.submitted = state->submitted.load(std::memory_order_relaxed);
    c.completed = state->completed.load(std::memory_order_relaxed);
    c.failed = state->failed.load(std::memory_order_relaxed);
    c.shed = state->shed.load(std::memory_order_relaxed);
    c.quota_rejected = state->quota_rejected.load(std::memory_order_relaxed);
    out.emplace_back(name, c);
  }
  return out;
}

std::vector<std::pair<std::string, std::uint64_t>>
InferenceEngine::fleet_counter_fields() const {
  std::vector<std::pair<std::string, std::uint64_t>> fields;
  for (const auto& [name, counters] : model_counters()) {
    for (auto& field : model_counter_fields(name, counters)) {
      fields.push_back(std::move(field));
    }
  }
  for (const auto& [name, counters] : tenant_counters()) {
    for (auto& field : tenant_counter_fields(name, counters)) {
      fields.push_back(std::move(field));
    }
  }
  return fields;
}

std::vector<std::pair<std::string, std::uint64_t>> counter_fields(
    const EngineCounters& counters) {
  return {
      {"serve.submitted", counters.submitted},
      {"serve.completed", counters.completed},
      {"serve.failed", counters.failed},
      {"serve.shed", counters.shed},
      {"serve.quota_rejected", counters.quota_rejected},
      {"serve.batches", counters.batches},
      {"serve.publishes", counters.publishes},
      {"serve.max_batch_rows", counters.max_batch_rows},
      {"serve.nonfinite_draws", counters.nonfinite_draws},
  };
}

std::vector<std::pair<std::string, std::uint64_t>> model_counter_fields(
    const std::string& model, const ModelCounters& counters) {
  const std::vector<std::pair<std::string, std::string>> label = {
      {"model", model}};
  return {
      {telemetry::labeled_name("serve.model.submitted", label),
       counters.submitted},
      {telemetry::labeled_name("serve.model.completed", label),
       counters.completed},
      {telemetry::labeled_name("serve.model.failed", label), counters.failed},
      {telemetry::labeled_name("serve.model.batches", label),
       counters.batches},
      {telemetry::labeled_name("serve.model.publishes", label),
       counters.publishes},
      {telemetry::labeled_name("serve.model.version", label),
       counters.version},
      {telemetry::labeled_name("serve.model.max_batch_rows", label),
       counters.max_batch_rows},
  };
}

std::vector<std::pair<std::string, std::uint64_t>> tenant_counter_fields(
    const std::string& tenant, const TenantCounters& counters) {
  const std::vector<std::pair<std::string, std::string>> label = {
      {"tenant", tenant}};
  return {
      {telemetry::labeled_name("serve.tenant.submitted", label),
       counters.submitted},
      {telemetry::labeled_name("serve.tenant.completed", label),
       counters.completed},
      {telemetry::labeled_name("serve.tenant.failed", label),
       counters.failed},
      {telemetry::labeled_name("serve.tenant.shed", label), counters.shed},
      {telemetry::labeled_name("serve.tenant.quota_rejected", label),
       counters.quota_rejected},
  };
}

}  // namespace vqmc::serve
