#pragma once

/// \file inference_engine.hpp
/// \brief Multi-model, multi-tenant inference engine over immutable MADE
/// snapshots: model fleet, shared worker pool, dynamic micro-batching,
/// per-tenant quotas, priority lanes and deadline-aware batch formation
/// (DESIGN.md §5e, §5j).
///
/// The engine turns trained models into a queryable service.  Three request
/// kinds — sample-n, log-psi evaluation and local-energy measurement —
/// enter a multi-queue ServeScheduler keyed by (model, kind); a shared pool
/// of worker threads coalesces co-batchable requests into dynamic
/// micro-batches under a `max_batch_rows x max_wait_us` policy and fulfils
/// them with the batched kernels, one future per request.  Batches never
/// mix models or kinds; they freely mix tenants and lanes.
///
/// **Model fleet & hot-swap.** The engine hosts any number of named models
/// (ModelFleet); each is an independently hot-swappable chain of immutable
/// ModelSnapshots with its own monotone version counter and problem-size
/// pin.  `publish(name, ...)` installs a new version with a single atomic
/// pointer exchange; a batch binds to exactly one published version of its
/// model at execution start and every response carries that version, so
/// each swap is linearizable at batch granularity per model.  Legacy
/// single-model calls route to `ServeConfig::default_model`.
///
/// **Admission.** Three gates, in order, all synchronous (a rejected
/// request is never enqueued, so `submitted == completed + failed` holds
/// after drain() and nothing is dropped unreported):
///   1. global backpressure — outstanding rows (queued + executing) bounded
///      by `max_pending_rows`, rejection = ServeOverloadError naming the
///      tripped limit, current depth and tenant;
///   2. per-tenant token-bucket quotas — rejection = ServeQuotaError naming
///      the tenant and its budget (scheduler.hpp);
///   3. per-request deadlines — expiry fails through the future with
///      ServeDeadlineError *before* execution, never after wasted compute
///      (EDF ordering within each queue tries to make the deadline first,
///      and the batching window never idles past the batch's earliest
///      deadline).
///
/// **Telemetry.** Engine-wide: queue-depth gauge (`serve.queue_rows`),
/// batch-occupancy histogram (`serve.batch_rows`), end-to-end latency
/// histogram (`serve.latency_seconds`) and counters for requests,
/// responses, sheds, quota rejections, batches and publishes.  Per-model /
/// per-tenant / per-lane series use labeled families
/// (`serve.model.*{model="..."}`, `serve.tenant.*{tenant="..."}`,
/// `serve.lane.latency_seconds{lane="..."}`) that flow through the obs
/// endpoint so `vqmc_top` dashboards can watch one tenant's tail latency
/// live; `counter_fields` / `fleet_counter_fields` are the pinned naming
/// authorities.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/local_energy.hpp"
#include "hamiltonian/hamiltonian.hpp"
#include "serve/model_fleet.hpp"
#include "serve/model_snapshot.hpp"
#include "serve/scheduler.hpp"

namespace vqmc::serve {

/// Engine tuning knobs.
struct ServeConfig {
  /// Worker threads fulfilling micro-batches — shared by every model.
  std::size_t workers = 2;
  /// Micro-batch row budget: a batch closes as soon as it holds this many
  /// rows.  1 disables coalescing (every request is its own batch).
  std::size_t max_batch_rows = 64;
  /// Batching window: a batch stays open at most this long after its oldest
  /// request arrived, waiting for co-batchable traffic.  0 dispatches
  /// immediately.  The effective wait is load-proportional (sliced window
  /// close, see worker_loop) and never extends past the earliest deadline
  /// in the open batch.
  double max_wait_us = 200;
  /// Admission bound on outstanding rows (queued + executing), shared
  /// across models and tenants.  Requests beyond it are shed with
  /// ServeOverloadError.
  std::size_t max_pending_rows = 4096;
  /// Enables local-energy requests (borrowed; must outlive the engine).
  const Hamiltonian* hamiltonian = nullptr;

  /// Lane pickup weights (scheduler.hpp): interactive gets
  /// `interactive_weight` of every `interactive_weight + batch_weight`
  /// batch openings when both lanes are backlogged; batch gets the rest
  /// and can never be starved.
  std::size_t interactive_weight = 7;
  std::size_t batch_weight = 1;
  /// Per-tenant token-bucket quotas.  Absent tenants are unlimited.
  std::map<std::string, TenantQuota> tenant_quotas;
  /// Model the versionless publish/submit overloads route to.
  std::string default_model = "default";
  /// Tenant attributed to requests that do not name one.
  std::string default_tenant = "anonymous";
};

/// Per-request routing options (the `{model, tenant, priority, deadline}`
/// tuple).  Empty model/tenant fall back to the ServeConfig defaults.
struct RequestOptions {
  std::string model;
  std::string tenant;
  Priority priority = Priority::kInteractive;
  /// Relative deadline in microseconds; 0 = none.
  double timeout_us = 0;
};

/// Response to a sample-n request.
struct SampleResult {
  Matrix samples;                   ///< count x n configurations in {0,1}
  std::uint64_t model_version = 0;  ///< snapshot version that produced them
};

/// Response to a log-psi or local-energy request (one value per input row).
struct EvalResult {
  std::vector<Real> values;
  std::uint64_t model_version = 0;
};

/// Monotone request-accounting counters.  After drain() with no traffic in
/// flight: submitted == completed + failed, and shed / quota-rejected
/// requests were rejected synchronously (never enqueued) — so every
/// admitted request is accounted for exactly once.
struct EngineCounters {
  std::uint64_t submitted = 0;  ///< admitted into the queue
  std::uint64_t completed = 0;  ///< fulfilled with a result
  std::uint64_t failed = 0;     ///< fulfilled with an exception (deadline...)
  std::uint64_t shed = 0;       ///< rejected at admission (overload)
  std::uint64_t quota_rejected = 0;  ///< rejected at admission (tenant quota)
  std::uint64_t batches = 0;    ///< micro-batches executed
  std::uint64_t publishes = 0;  ///< snapshot versions published (all models)
  std::uint64_t max_batch_rows = 0;  ///< largest micro-batch executed (rows)
  /// Non-finite conditionals clamped to an unbiased coin during sampling
  /// (0 for healthy models; nonzero attributes sick batches to the model).
  std::uint64_t nonfinite_draws = 0;
};

/// Per-model traffic + version accounting (one shared worker pool serves
/// every model, so these are the only place per-model load is visible).
struct ModelCounters {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t batches = 0;
  std::uint64_t publishes = 0;
  std::uint64_t version = 0;         ///< currently published version
  std::uint64_t max_batch_rows = 0;  ///< largest batch of this model (rows)
};

/// Per-tenant traffic accounting.
struct TenantCounters {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t shed = 0;            ///< overload rejections charged here
  std::uint64_t quota_rejected = 0;  ///< token-bucket rejections
};

/// The engine-wide counters as stable (name, value) pairs — the single
/// naming authority for `vqmc_serve --smoke` output and the observability
/// exposition snapshot (a test pins these names; dashboards depend on
/// them).
[[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
counter_fields(const EngineCounters& counters);

/// Labeled per-model rows: `serve.model.<field>{model="<name>"}` for
/// submitted/completed/failed/batches/publishes/version/max_batch_rows.
[[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
model_counter_fields(const std::string& model, const ModelCounters& counters);

/// Labeled per-tenant rows: `serve.tenant.<field>{tenant="<name>"}` for
/// submitted/completed/failed/shed/quota_rejected.
[[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
tenant_counter_fields(const std::string& tenant,
                      const TenantCounters& counters);

/// Concurrent inference engine.  Thread-safe: any thread may submit or
/// publish; worker threads are owned by the engine.
class InferenceEngine {
 public:
  explicit InferenceEngine(ServeConfig config = {});
  ~InferenceEngine();

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// Install `snapshot` as model `model_name`'s current version (atomic
  /// pointer swap; batches already dispatched keep their version).  The
  /// model is registered on first publish.  Returns the model-scoped
  /// monotone version (first publish is version 1).  Throws
  /// SnapshotMismatchError if the spin count differs from the versions
  /// this model served so far — a hot-swap may retune weights, not change
  /// the problem (distinct models may serve distinct sizes).
  std::uint64_t publish(const std::string& model_name,
                        std::shared_ptr<const ModelSnapshot> snapshot);
  /// Legacy single-model form: publishes to ServeConfig::default_model.
  std::uint64_t publish(std::shared_ptr<const ModelSnapshot> snapshot);

  /// Convenience: snapshot a live model's current parameters and publish.
  std::uint64_t publish_model(const std::string& model_name,
                              const Made& model);
  std::uint64_t publish_model(const Made& model);

  /// Convenience: validate and publish a training checkpoint
  /// (ModelSnapshot::from_training_snapshot).
  std::uint64_t publish_checkpoint(const std::string& model_name,
                                   const TrainingSnapshot& snapshot);
  std::uint64_t publish_checkpoint(const TrainingSnapshot& snapshot);

  /// The currently published snapshot of a model (nullptr before its first
  /// publish or for an unknown name).  The versionless forms read the
  /// default model.
  [[nodiscard]] std::shared_ptr<const ModelSnapshot> current_snapshot(
      const std::string& model_name) const;
  [[nodiscard]] std::shared_ptr<const ModelSnapshot> current_snapshot() const;
  /// Version of a model's current snapshot (0 before first publish).
  [[nodiscard]] std::uint64_t current_version(
      const std::string& model_name) const;
  [[nodiscard]] std::uint64_t current_version() const;
  /// Names of every model published so far, sorted.
  [[nodiscard]] std::vector<std::string> model_names() const;

  /// Draw `count` exact samples from `options.model`.  The request's rows
  /// are bit-identical to a FastMadeSampler over the same weights seeded
  /// with `seed`, regardless of how the engine batches it.
  std::future<SampleResult> submit_sample(std::size_t count,
                                          std::uint64_t seed,
                                          const RequestOptions& options);
  /// Legacy form: default model/tenant, interactive lane.
  /// `timeout_us` == 0 means no deadline.
  std::future<SampleResult> submit_sample(std::size_t count,
                                          std::uint64_t seed,
                                          double timeout_us = 0);

  /// Evaluate log |psi| for each row of `configs` (entries in {0,1}).
  std::future<EvalResult> submit_log_psi(Matrix configs,
                                         const RequestOptions& options);
  std::future<EvalResult> submit_log_psi(Matrix configs,
                                         double timeout_us = 0);

  /// Evaluate local energies for each row of `configs`.  Requires
  /// ServeConfig::hamiltonian.  Each worker keeps one LocalEnergyEngine —
  /// the trainer's engine, flip path included — rebound to every batch's
  /// snapshot, so a repeated batch shape allocates nothing beyond the
  /// response payloads, and each value is bitwise the engine's.
  std::future<EvalResult> submit_local_energy(Matrix configs,
                                              const RequestOptions& options);
  std::future<EvalResult> submit_local_energy(Matrix configs,
                                              double timeout_us = 0);

  /// Block until every admitted request has been fulfilled (result or
  /// exception).  New requests may still arrive while draining.
  void drain();

  /// Stop the workers from opening new micro-batches; admission continues,
  /// so the queues accumulate.  Deterministic-saturation hook for tests and
  /// operational drills (pause, let traffic pile up, resume, observe one
  /// full batch).  Batches already being assembled or executed finish
  /// normally, and shutdown() overrides a pause so the backlog drains.
  void pause();

  /// Undo pause(): workers resume harvesting the accumulated queues.
  void resume();

  /// Stop admission (further submits throw ServeShutdownError), fulfil
  /// every queued request, and join the workers.  Idempotent; also run by
  /// the destructor.
  void shutdown();

  [[nodiscard]] EngineCounters counters() const;
  /// Per-model accounting, sorted by model name.
  [[nodiscard]] std::vector<std::pair<std::string, ModelCounters>>
  model_counters() const;
  /// Per-tenant accounting, sorted by tenant id (tenants appear once they
  /// have submitted — or been rejected — at least once).
  [[nodiscard]] std::vector<std::pair<std::string, TenantCounters>>
  tenant_counters() const;
  /// Every labeled per-model and per-tenant exposition row, ready to merge
  /// into a StatusReport next to counter_fields().
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
  fleet_counter_fields() const;

  [[nodiscard]] const ServeConfig& config() const { return config_; }

 private:
  enum class Kind { Sample, LogPsi, LocalEnergy };

  /// Engine-side per-model state: the fleet chain plus traffic counters.
  /// Address-stable (never erased); doubles as the scheduler's model key.
  struct ModelState {
    explicit ModelState(FleetModel& chain) : chain(&chain) {}
    FleetModel* chain;
    std::atomic<std::uint64_t> submitted{0};
    std::atomic<std::uint64_t> completed{0};
    std::atomic<std::uint64_t> failed{0};
    std::atomic<std::uint64_t> batches{0};
    std::atomic<std::uint64_t> max_batch_rows{0};
    std::string batch_rows_metric;  ///< cached labeled histogram name
  };

  /// Per-tenant traffic counters.  Address-stable (never erased).
  struct TenantState {
    std::atomic<std::uint64_t> submitted{0};
    std::atomic<std::uint64_t> completed{0};
    std::atomic<std::uint64_t> failed{0};
    std::atomic<std::uint64_t> shed{0};
    std::atomic<std::uint64_t> quota_rejected{0};
    std::string latency_metric;  ///< cached labeled histogram name
  };

  struct Request : QueuedRequest {
    Kind request_kind = Kind::Sample;
    std::uint64_t seed = 0;  ///< Sample only
    Matrix configs;          ///< LogPsi / LocalEnergy only
    std::promise<SampleResult> sample_promise;
    std::promise<EvalResult> eval_promise;
    ModelState* model_state = nullptr;
    TenantState* tenant_state = nullptr;
  };

  std::future<SampleResult> enqueue_sample(std::unique_ptr<Request> request,
                                           const RequestOptions& options);
  std::future<EvalResult> enqueue_eval(std::unique_ptr<Request> request,
                                       const RequestOptions& options);
  void admit(std::unique_ptr<Request> request, const RequestOptions& options);
  /// Model state by name, created on first use (registry lock only).
  ModelState& ensure_model_state(const std::string& name);
  TenantState& ensure_tenant_state(const std::string& name);
  /// Per-worker reusable batch scratch: the fused batch buffers and slice
  /// tables reach a steady shape once saturated batches fill
  /// max_batch_rows, so the execute path stops allocating between batches
  /// (the per-request response payloads are the only remaining
  /// allocations — they transfer ownership to the client).
  struct BatchScratch {
    Matrix sample_out;                              ///< fused sample output
    Matrix stacked;                                 ///< fused eval input
    std::vector<rng::Xoshiro256> gens;              ///< per-request streams
    std::vector<ModelSnapshot::SampleSlice> slices; ///< fused row ranges
    std::vector<Real> values;                       ///< fused eval output
    /// Local-energy engine, built on the worker's first local-energy batch
    /// and rebound to each batch's snapshot, so its flip-path scratch
    /// persists across batches.
    std::unique_ptr<LocalEnergyEngine> local_energy;
  };

  void worker_loop();
  void execute_batch(BatchPlan& plan, Made::Workspace& ws,
                     BatchScratch& scratch);
  void fail_request(Request& request, std::exception_ptr error);
  void finish_rows(std::size_t rows);

  ServeConfig config_;
  ModelFleet fleet_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   ///< workers wait for traffic
  std::condition_variable drain_cv_;  ///< drain() waits for quiescence
  ServeScheduler scheduler_;          ///< queues; driven under mutex_
  std::size_t pending_rows_ = 0;  ///< rows admitted but not yet fulfilled
  bool stopping_ = false;
  bool paused_ = false;  ///< workers hold off opening batches (pause())
  std::vector<std::thread> workers_;

  mutable std::mutex registry_mutex_;  ///< guards the two state maps
  std::map<std::string, std::unique_ptr<ModelState>> model_states_;
  std::map<std::string, std::unique_ptr<TenantState>> tenant_states_;

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> quota_rejected_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> publishes_{0};
  std::atomic<std::uint64_t> max_batch_rows_{0};
  std::atomic<std::uint64_t> nonfinite_draws_{0};
};

}  // namespace vqmc::serve
