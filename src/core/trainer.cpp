#include "core/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/jsonl.hpp"
#include "telemetry/metrics_registry.hpp"
#include "telemetry/tracer.hpp"
#include "tensor/kernels.hpp"

namespace vqmc {

namespace {

constexpr Real kNaN = std::numeric_limits<Real>::quiet_NaN();

// trainer_state layout: [base_lr, best_energy, have_best, seconds,
// divergence {best, have_best, consecutive}, have_snapshot], the rollback
// snapshot (d values, iff held), then the 8 HealthCounters tallies. Its
// length is 16 or 16 + d, so neither earlier layout can be misread as it:
// the serial one had 8 or 8 + d fields (field 7 flags the d), the
// distributed one 5.
constexpr std::size_t kBaseFields = 8;
constexpr std::uint64_t health::HealthCounters::*kHealthTallies[] = {
    &health::HealthCounters::guard_trips,
    &health::HealthCounters::nonfinite_energy,
    &health::HealthCounters::nonfinite_gradient,
    &health::HealthCounters::nonfinite_update,
    &health::HealthCounters::sr_breakdowns,
    &health::HealthCounters::divergences,
    &health::HealthCounters::skipped_iterations,
    &health::HealthCounters::rollbacks};
constexpr std::size_t kHealthFields = std::size(kHealthTallies);

/// " on k of n rank(s)": which ranks a reduced flag vector blames.
std::string on_ranks(int bad, int live) {
  return " on " + std::to_string(bad) + " of " + std::to_string(live) +
         " rank(s)";
}

/// Times one phase of the step: opens the phase's span under its kPhases
/// name and, when the scope ends, adds the elapsed wall seconds to the
/// phase's member, so the span and the seconds cover the same interval.
/// Under -DVQMC_TELEMETRY=OFF only the span compiles out.
class PhaseScope {
 public:
  PhaseScope(PhaseBreakdown& phases, double PhaseBreakdown::*member)
      :
#if VQMC_TELEMETRY_COMPILED
        span_(std::find_if(std::begin(kPhases), std::end(kPhases),
                           [member](const Phase& phase) {
                             return phase.member == member;
                           })->name),
#endif
        seconds_(phases.*member) {
  }
  ~PhaseScope() { end(); }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

  /// Close the phase now and return the seconds it added (0 once closed).
  double end() {
    if (!open_) return 0;
    open_ = false;
    const double elapsed = timer_.seconds();
    seconds_ += elapsed;
#if VQMC_TELEMETRY_COMPILED
    span_.end();
#endif
    return elapsed;
  }

 private:
#if VQMC_TELEMETRY_COMPILED
  telemetry::Span span_;
#endif
  double& seconds_;
  Timer timer_;
  bool open_ = true;
};

}  // namespace

VqmcTrainer::VqmcTrainer(const Hamiltonian& hamiltonian,
                         WavefunctionModel& model, Sampler& sampler,
                         Optimizer& optimizer, TrainerConfig config,
                         parallel::Communicator& comm)
    : hamiltonian_(hamiltonian),
      model_(model),
      sampler_(sampler),
      optimizer_(optimizer),
      config_(config),
      comm_(comm),
      engine_(hamiltonian, model),
      sr_(config.sr) {
  VQMC_REQUIRE(config_.iterations >= 0, "trainer: iterations must be >= 0");
  VQMC_REQUIRE(config_.batch_size >= 1, "trainer: batch size must be >= 1");
  VQMC_REQUIRE(!config_.use_sr || comm_.size() == 1,
               "trainer: stochastic reconfiguration runs on one rank only, "
               "not on " + std::to_string(comm_.size()));
  const std::size_t n = hamiltonian_.num_spins();
  const std::size_t d = model_.num_parameters();
  const std::size_t ranks = std::size_t(comm_.size());
  batch_ = Matrix(config_.batch_size, n);
  local_energies_ = Vector(config_.batch_size);
  energy_payload_.assign(2 + 2 * ranks, Real(0));
  gradient_ = Vector(d + ranks);
  known_alive_.assign(ranks, 1);
  if (config_.use_sr) {
    natural_gradient_ = Vector(d);
    per_sample_o_ = Matrix(config_.batch_size, d);
  }
  model_ws_ = model_.make_workspace();
  VQMC_REQUIRE(config_.max_grad_norm >= 0,
               "trainer: max_grad_norm must be non-negative");
  VQMC_REQUIRE(config_.guard.backoff_factor > 0 &&
                   config_.guard.backoff_factor <= 1,
               "trainer: guard backoff factor must be in (0, 1]");
  base_learning_rate_ = optimizer_.learning_rate();
  divergence_ = health::DivergenceDetector(config_.guard);
  if (config_.guard.policy == health::GuardPolicy::RollbackAndBackoff)
    snapshot_ = Vector(d);
  VQMC_REQUIRE(config_.checkpoint_every >= 0,
               "trainer: checkpoint_every must be >= 0");
  if (!config_.checkpoint_path.empty() && config_.checkpoint_every > 0) {
    keeper_ = std::make_unique<CheckpointKeeper>(
        config_.checkpoint_path, config_.checkpoint_keep_last);
  }
}

double VqmcTrainer::allreduce(std::span<Real> payload, PhaseBreakdown& phases) {
  PhaseScope scope(phases, &PhaseBreakdown::allreduce);
  // The thread-CPU clock read is a syscall, i.e. a preemption point: read it
  // inside the phase so park time before the collective is wait time.
  busy_seconds_ += busy_.seconds();
  comm_.allreduce_sum(payload);
  const double wait = scope.end();
  busy_.reset();
  return wait;
}

bool VqmcTrainer::is_reporter() const {
  const auto lowest =
      std::find(known_alive_.begin(), known_alive_.end(), char(1));
  return lowest - known_alive_.begin() == comm_.rank();
}

void VqmcTrainer::handle_guard_trip(const std::string& reason) {
  ++health_.guard_trips;
  health_.last_trip_reason = reason;
  if (telemetry::enabled())
    telemetry::metrics().counter("trainer.guard_trips").add();
  if (is_reporter()) {
    if (config_.guard.policy != health::GuardPolicy::Throw)
      log_warn("trainer: health guard tripped at iteration ", iteration_,
               ": ", reason);
    telemetry::jsonl_event(
        "guard_trip", {{"reason", reason}, {"trips", health_.guard_trips}});
  }
  switch (config_.guard.policy) {
    case health::GuardPolicy::Throw:
      // Every rank decides from the same reduced flags, so every rank
      // throws here together and none is left inside a collective.
      throw Error("trainer: health guard tripped at iteration " +
                  std::to_string(iteration_) + ": " + reason);
    case health::GuardPolicy::SkipIteration:
      ++health_.skipped_iterations;
      break;
    case health::GuardPolicy::RollbackAndBackoff: {
      ++health_.rollbacks;
      if (have_snapshot_) {
        std::span<Real> params = model_.parameters();
        std::copy(snapshot_.span().begin(), snapshot_.span().end(),
                  params.begin());
      }
      base_learning_rate_ *= config_.guard.backoff_factor;
      optimizer_.set_learning_rate(base_learning_rate_);
      divergence_.reset_streak();
      break;
    }
  }
}

IterationMetrics VqmcTrainer::step() {
  telemetry::set_iteration(iteration_);
  telemetry::Span iteration_span("iteration");
  Timer timer;
  IterationMetrics metrics;
  busy_.reset();
  const std::size_t ranks = std::size_t(comm_.size());
  const std::size_t rank = std::size_t(comm_.rank());
  const std::size_t d = model_.num_parameters();

  // 1. Sample a batch from the current model distribution.
  {
    const PhaseScope scope(metrics.phases, &PhaseBreakdown::sample);
    // Thread the trainer's model workspace through: the batched conditional
    // engine then shares the forward pass's scratch (zero steady-state
    // allocations in the sampling phase).
    sampler_.sample_ws(batch_, model_ws_.get());
  }

  // 2. Local energies (Eq. 3), guarded: a single NaN/inf local energy must
  // not reach a reduction, the gradient, the optimizer or the metrics
  // unnoticed. A sick rank contributes zeros plus its flag.
  EnergyEstimate est;
  std::size_t bad_energies = 0;
  {
    const PhaseScope scope(metrics.phases, &PhaseBreakdown::local_energy);
    engine_.compute(batch_, local_energies_.span());
    bad_energies = health::count_nonfinite(local_energies_.span());
    std::fill(energy_payload_.begin(), energy_payload_.end(), Real(0));
    if (bad_energies == 0) {
      est = estimate_energy(local_energies_.span());
      energy_payload_[0] = sum(local_energies_.span());
      energy_payload_[1] = Real(batch_.rows());
    } else {
      est.std_dev = kNaN;
      energy_payload_[2 + rank] = 1;
    }
    energy_payload_[2 + ranks + rank] = 1;
  }

  // 3. First allreduce: the batch mean over every live rank and the count
  // of samples behind it. A whole group folds to batch_size * ranks, so the
  // divisor equals the fixed one; after a shrink it counts the survivors.
  double comm_wait = allreduce(energy_payload_, metrics.phases);
  const Real count = energy_payload_[1];
  const Real mean = count > 0 ? energy_payload_[0] / count : kNaN;
  int bad_energy_ranks = 0;
  int live_ranks = 0;
  const std::size_t first_new_shrink = shrink_events_.size();
  for (std::size_t r = 0; r < ranks; ++r) {
    bad_energy_ranks += energy_payload_[2 + r] > 0 ? 1 : 0;
    const bool live = energy_payload_[2 + ranks + r] > 0;
    live_ranks += live ? 1 : 0;
    if (!live && known_alive_[r]) {
      known_alive_[r] = 0;
      shrink_events_.push_back({iteration_, int(r), 0});
    }
  }
  // Every survivor sees the same flags and so records the same shrink log;
  // only the lowest live rank reports it.
  for (std::size_t i = first_new_shrink; i < shrink_events_.size(); ++i) {
    ShrinkEvent& event = shrink_events_[i];
    event.live_after = live_ranks;
    if (!is_reporter()) continue;
    log_warn("elastic shrink: rank " + std::to_string(event.rank) +
             " left at iteration " + std::to_string(event.iteration) + ", " +
             std::to_string(live_ranks) + " rank(s) remain");
    telemetry::jsonl_event(
        "shrink", {{"dead_rank", event.rank}, {"live_after", live_ranks}});
  }

  bool tripped = false;
  std::string trip_reason;
  if (bad_energy_ranks > 0) {
    if (bad_energies > 0) ++health_.nonfinite_energy;
    tripped = true;
    trip_reason = "non-finite local energies" +
                  on_ranks(bad_energy_ranks, live_ranks);
  } else if (divergence_.update(mean)) {
    ++health_.divergences;
    tripped = true;
    trip_reason = "energy divergence: batch mean exceeded the explosion "
                  "threshold for " +
                  std::to_string(config_.guard.divergence_window) +
                  " consecutive iterations";
  }

  // 4. Energy gradient (Eq. 5) and the second allreduce. The current
  // parameters just produced finite energies, so they become the last-good
  // rollback snapshot.
  const std::span<Real> gradient = gradient_.span().first(d);
  if (!tripped) {
    bool bad_gradient = false;
    {
      const PhaseScope scope(metrics.phases, &PhaseBreakdown::gradient);
      if (config_.guard.policy == health::GuardPolicy::RollbackAndBackoff) {
        std::span<const Real> params = model_.parameters();
        std::copy(params.begin(), params.end(), snapshot_.span().begin());
        have_snapshot_ = true;
      }
      gradient_.fill(0);
      accumulate_energy_gradient(model_, batch_, local_energies_.span(),
                                 mean, count, gradient, model_ws_.get());
      bad_gradient = !health::all_finite(gradient);
      if (bad_gradient) {
        std::fill(gradient.begin(), gradient.end(), Real(0));
        gradient_[d + rank] = 1;
      }
    }
    comm_wait += allreduce(gradient_.span(), metrics.phases);
    int bad_gradient_ranks = 0;
    for (std::size_t r = 0; r < ranks; ++r)
      bad_gradient_ranks += gradient_[d + r] > 0 ? 1 : 0;
    if (bad_gradient_ranks > 0) {
      if (bad_gradient) ++health_.nonfinite_gradient;
      tripped = true;
      trip_reason = "non-finite energy gradient" +
                    on_ranks(bad_gradient_ranks, live_ranks);
    }
  }

  // 5. Optional SR preconditioning (one rank only), guarded against solver
  // breakdowns and non-finite natural gradients.
  std::span<Real> update = gradient;
  if (!tripped && config_.use_sr) {
    const PhaseScope scope(metrics.phases, &PhaseBreakdown::sr_solve);
    model_.log_psi_gradient_per_sample_ws(batch_, per_sample_o_,
                                          model_ws_.get());
    const SrReport sr =
        sr_.precondition(per_sample_o_, gradient, natural_gradient_.span());
    if (sr.breakdown) {
      ++health_.sr_breakdowns;
      tripped = true;
      trip_reason = "SR breakdown: " + sr.reason;
    } else {
      update = natural_gradient_.span();
      if (!health::all_finite(update)) {
        ++health_.nonfinite_update;
        tripped = true;
        trip_reason = "non-finite natural gradient after SR";
      }
    }
  }

  // 6. Clipping, schedule and the optimizer step — or the recovery action.
  if (!tripped) {
    const PhaseScope scope(metrics.phases, &PhaseBreakdown::optimizer);
    if (config_.max_grad_norm > 0) {
      Real norm2 = 0;
      for (Real v : update) norm2 += v * v;
      const Real norm = std::sqrt(norm2);
      if (norm > config_.max_grad_norm)
        scale(update, config_.max_grad_norm / norm);
    }
    if (config_.lr_schedule != nullptr) {
      optimizer_.set_learning_rate(
          base_learning_rate_ * config_.lr_schedule->multiplier(iteration_));
    }
    optimizer_.step(model_.parameters(), update);

    if (!have_best_ || est.min < best_energy_) {
      best_energy_ = est.min;
      have_best_ = true;
    }
  } else {
    handle_guard_trip(trip_reason);
  }
  busy_seconds_ += busy_.seconds();

  training_seconds_ += timer.seconds();
  metrics.iteration = iteration_++;
  metrics.energy = mean;
  metrics.std_dev = est.std_dev;
  metrics.best_energy = best_energy_;
  metrics.seconds = training_seconds_;
  metrics.guard_trips = health_.guard_trips;
  metrics.guard_reason = health_.last_trip_reason;
  if (keeper_ && iteration_ % config_.checkpoint_every == 0) {
    PhaseScope scope(metrics.phases, &PhaseBreakdown::checkpoint);
    keeper_->write(snapshot());
    const double seconds = scope.end();
    telemetry::jsonl_event("checkpoint", {{"path", config_.checkpoint_path},
                                          {"seconds", seconds}});
  }
  allreduce_wait_seconds_ += comm_wait;
  record_telemetry(metrics, live_ranks, comm_wait);
  // Sink I/O happens after the iteration span closes so it is not charged
  // to iteration wall time; guarded on active() because the field list
  // allocates.
  iteration_span.end();
  if (telemetry::JsonlLogger::instance().active()) {
    [&metrics]<std::size_t... I>(std::index_sequence<I...>) {
      telemetry::jsonl_event(
          "iteration",
          {{"energy", double(metrics.energy)},
           {"std_dev", double(metrics.std_dev)},
           {kPhases[I].key, metrics.phases.*kPhases[I].member}...});
    }(std::make_index_sequence<std::size(kPhases)>());
  }
  history_.push_back(metrics);
  telemetry::set_iteration(-1);
  return metrics;
}

void VqmcTrainer::record_telemetry(const IterationMetrics& metrics,
                                   int live_ranks, double comm_wait) {
  if (!telemetry::enabled()) return;
  // The thread-current registry: the global one for a serial run, the
  // rank's own in a distributed run (merged across ranks at the end).
  telemetry::MetricsRegistry& registry = telemetry::metrics();
  registry.counter("trainer.iterations").add();
  registry.gauge("trainer.iteration").set(double(metrics.iteration));
  registry.gauge("comm.live_ranks").set(double(live_ranks));
  registry.histogram("comm.allreduce_wait_seconds").observe(comm_wait);
  // A phase that did not run this iteration (an update skipped by a guard,
  // SR when it is off) records nothing.
  for (const Phase& phase : kPhases) {
    const double seconds = metrics.phases.*phase.member;
    if (seconds > 0) registry.histogram(phase.histogram).observe(seconds);
  }

  // Append this iteration to the crash-evidence ring (DESIGN.md §5i).
  telemetry::FlightRecord record;
  record.iteration = metrics.iteration;
  record.rank = comm_.rank();
  record.live_ranks = live_ranks;
  record.wall_us = telemetry::now_us();
  record.energy = double(metrics.energy);
  record.guard_trips = metrics.guard_trips;
  record.phases = metrics.phases;
  telemetry::FlightRecorder::instance().record(record);
}

// Both loops count from iteration_ rather than 0 so a restored trainer
// resumes at the interrupted iteration instead of re-running the full
// budget.
void VqmcTrainer::run() {
  while (iteration_ < config_.iterations) step();
}

void VqmcTrainer::run_until(
    const std::function<bool(const IterationMetrics&)>& stop) {
  while (iteration_ < config_.iterations) {
    if (stop(step())) return;
  }
}

TrainingSnapshot VqmcTrainer::snapshot() const {
  TrainingSnapshot snap;
  snap.model_name = model_.name();
  snap.optimizer_name = optimizer_.name();
  snap.sampler_name = sampler_.name();
  snap.num_spins = model_.num_spins();
  snap.num_parameters = model_.num_parameters();
  snap.iteration = iteration_;
  const std::span<const Real> params = model_.parameters();
  snap.parameters.assign(params.begin(), params.end());
  snap.optimizer_state = optimizer_.serialize_state();
  snap.sampler_state = sampler_.serialize_state();
  const health::DivergenceDetector::State div = divergence_.state();
  snap.trainer_state = {base_learning_rate_,
                        best_energy_,
                        have_best_ ? Real(1) : Real(0),
                        Real(training_seconds_),
                        div.best,
                        div.have_best ? Real(1) : Real(0),
                        Real(div.consecutive),
                        have_snapshot_ ? Real(1) : Real(0)};
  if (have_snapshot_)
    snap.trainer_state.insert(snap.trainer_state.end(),
                              snapshot_.span().begin(), snapshot_.span().end());
  for (const auto tally : kHealthTallies)
    snap.trainer_state.push_back(Real(health_.*tally));
  return snap;
}

void VqmcTrainer::restore(const TrainingSnapshot& snap) {
  VQMC_REQUIRE(snap.model_name == model_.name(),
               "trainer restore: model kind mismatch ('" + snap.model_name +
                   "' vs '" + model_.name() + "')");
  VQMC_REQUIRE(snap.num_spins == model_.num_spins(),
               "trainer restore: spin count mismatch");
  VQMC_REQUIRE(snap.num_parameters == model_.num_parameters(),
               "trainer restore: parameter count mismatch");
  VQMC_REQUIRE(snap.optimizer_name == optimizer_.name(),
               "trainer restore: optimizer kind mismatch ('" +
                   snap.optimizer_name + "' vs '" + optimizer_.name() + "')");
  // "AUTO-fast" is the label the MADE engine sampler carried before it
  // became the AUTO sampler; its state layout is unchanged, so such
  // snapshots restore into today's AUTO.
  const std::string stored_sampler =
      snap.sampler_name == "AUTO-fast" ? "AUTO" : snap.sampler_name;
  VQMC_REQUIRE(stored_sampler == sampler_.name(),
               "trainer restore: sampler kind mismatch ('" +
                   snap.sampler_name + "' vs '" + sampler_.name() + "')");
  VQMC_REQUIRE(snap.parameters.size() == model_.num_parameters(),
               "trainer restore: parameter payload size mismatch");
  VQMC_REQUIRE(snap.iteration >= 0, "trainer restore: negative iteration");
  const std::vector<Real>& state = snap.trainer_state;
  const bool have_snapshot = state.size() > 7 && state[7] != 0;
  const std::size_t rollback = have_snapshot ? model_.num_parameters() : 0;
  VQMC_REQUIRE(state.size() == kBaseFields + rollback + kHealthFields,
               "trainer restore: trainer state has " +
                   std::to_string(state.size()) + " fields, expected " +
                   std::to_string(kBaseFields + rollback + kHealthFields) +
                   " (a checkpoint from an older layout?)");
  // The divergence streak and the guard tallies are counts read from a
  // file; converting a double outside the target's range is undefined, so
  // such a value is rejected before anything is restored.
  const auto tallies = state.begin() + std::ptrdiff_t(kBaseFields + rollback);
  const auto is_tally = [](Real v) {
    return v >= 0 && v <= Real(std::uint64_t(1) << 53);
  };
  VQMC_REQUIRE(state[6] >= 0 &&
                   state[6] <= Real(std::numeric_limits<int>::max()) &&
                   std::all_of(tallies, state.end(), is_tally),
               "trainer restore: count field out of range");

  std::span<Real> params = model_.parameters();
  std::copy(snap.parameters.begin(), snap.parameters.end(), params.begin());
  optimizer_.restore_state(snap.optimizer_state);
  sampler_.restore_state(snap.sampler_state);

  iteration_ = int(snap.iteration);
  base_learning_rate_ = state[0];
  best_energy_ = state[1];
  have_best_ = state[2] != 0;
  training_seconds_ = double(state[3]);
  health::DivergenceDetector::State div;
  div.best = state[4];
  div.have_best = state[5] != 0;
  div.consecutive = int(state[6]);
  divergence_.set_state(div);
  have_snapshot_ = have_snapshot;
  if (have_snapshot_) {
    if (snapshot_.size() != rollback) snapshot_ = Vector(rollback);
    std::copy(state.begin() + kBaseFields,
              state.begin() + std::ptrdiff_t(kBaseFields + rollback),
              snapshot_.span().begin());
  }
  auto tally = tallies;
  for (const auto field : kHealthTallies)
    health_.*field = std::uint64_t(*tally++);
}

EnergyEstimate VqmcTrainer::evaluate(std::size_t eval_batch_size) {
  Matrix samples;
  return evaluate_with_samples(eval_batch_size, samples);
}

EnergyEstimate VqmcTrainer::evaluate_with_samples(std::size_t eval_batch_size,
                                                  Matrix& samples) {
  VQMC_REQUIRE(eval_batch_size >= 1, "trainer: eval batch must be >= 1");
  samples = Matrix(eval_batch_size, hamiltonian_.num_spins());
  sampler_.sample_ws(samples, model_ws_.get());
  Vector energies(eval_batch_size);
  engine_.compute(samples, energies.span());
  return estimate_energy(energies.span());
}

}  // namespace vqmc
