/// \file train.cpp
/// \brief Serial training workloads: the paper's Table 1 columns (tim_made,
/// tim_rbm) and the SR path (maxcut_sr), driven one VqmcTrainer::step at a
/// time on one thread.

#include <cmath>
#include <limits>
#include <memory>

#include "common.hpp"
#include "reference.hpp"
#include "core/factory.hpp"
#include "core/trainer.hpp"
#include "hamiltonian/maxcut.hpp"
#include "hamiltonian/transverse_field_ising.hpp"
#include "telemetry/metrics_registry.hpp"

namespace vqmc_bench {

namespace {

using vqmc::telemetry::now_us;

struct SerialSpec {
  std::string model, sampler, optimizer;
  bool maxcut = false;
  std::size_t n = 0;
  std::size_t batch = 0;
  int warmup = 2;
  /// Overrides the factory's learning rate when non-zero.
  double learning_rate = 0;
  /// Calibrated time = wall time x (core speed)^exponent (reference.hpp).
  double speed_exponent = 1;
  /// Timed iterations at --smoke scale (fixed, so runs repeat bit for bit).
  long long smoke_iterations = 4;
};

SerialSpec serial_spec(const Options& options) {
  const bool smoke = options.smoke;
  SerialSpec spec;
  if (options.workload == "tim_made") {
    spec = {"MADE", "AUTO", "ADAM", false, 128, 256};
  } else if (options.workload == "tim_rbm") {
    spec = {"RBM", "MCMC", "ADAM", false, 128, 256};
  } else {
    // n = 64 with the default width gives d = 11158 > the dense-solve
    // threshold, so SR runs its matrix-free CG path. At the paper's
    // learning rate (0.1) the distribution concentrates within tens of
    // iterations: the CG count climbs to its cap and then collapses at a
    // seed-dependent iteration, and step times differ 3x between seeds. At
    // 1e-3 every solve stays near 45 CG iterations.
    spec = {"MADE", "AUTO", "SGD+SR", true, 64, 128};
    spec.learning_rate = 1e-3;
    // SR's CG streams the 11 MB per-sample gradient matrix through the
    // shared cache, and its time followed the compute-bound reference loop
    // only weakly: while the host ran the loop at 0.45-0.86 of its rest
    // speed, full calibration left an IQR/median of 0.055-0.105 between
    // runs of a step, and speed^0.6 left 0.021-0.029 (21 runs).
    spec.speed_exponent = 0.6;
  }
  if (smoke) {
    spec.n = 12;  // d = 762 for MADE: still the CG path under SR
    spec.batch = 32;
    spec.warmup = 1;
  }
  return spec;
}

/// Everything one serial training run owns; the trainer borrows the rest.
struct SerialRig {
  std::unique_ptr<vqmc::Hamiltonian> hamiltonian;
  std::unique_ptr<vqmc::WavefunctionModel> model;
  std::unique_ptr<vqmc::Sampler> sampler;
  std::unique_ptr<vqmc::Optimizer> optimizer;
  std::unique_ptr<TimedOptimizer> timed;  ///< traced passes only
  std::unique_ptr<vqmc::VqmcTrainer> trainer;
};

/// Instance, model, sampler, optimizer, trainer and warm-up iterations:
/// the set-up a user pays before the first timed iteration.
std::unique_ptr<SerialRig> build_rig(const SerialSpec& spec,
                                     std::uint64_t seed, bool traced) {
  auto rig = std::make_unique<SerialRig>();
  if (spec.maxcut) {
    rig->hamiltonian = std::make_unique<vqmc::MaxCut>(
        vqmc::MaxCut::paper_instance(spec.n, seed));
  } else {
    rig->hamiltonian = std::make_unique<vqmc::TransverseFieldIsing>(
        vqmc::TransverseFieldIsing::random_dense(spec.n, seed));
  }
  rig->model = vqmc::make_model(spec.model, spec.n, 0, seed);
  rig->sampler =
      vqmc::make_sampler(spec.sampler, *rig->model, seed * 7919 + 13);
  rig->optimizer = vqmc::make_optimizer(spec.optimizer);
  if (spec.learning_rate > 0)
    rig->optimizer->set_learning_rate(spec.learning_rate);
  vqmc::Optimizer* optimizer = rig->optimizer.get();
  if (traced) {
    rig->timed = std::make_unique<TimedOptimizer>(*optimizer);
    optimizer = rig->timed.get();
  }
  vqmc::TrainerConfig config;
  config.batch_size = spec.batch;
  config.use_sr = vqmc::optimizer_label_uses_sr(spec.optimizer);
  rig->trainer = std::make_unique<vqmc::VqmcTrainer>(
      *rig->hamiltonian, *rig->model, *rig->sampler, *optimizer, config);
  for (int i = 0; i < spec.warmup; ++i) rig->trainer->step();
  return rig;
}

/// Registry state of the SR instruments (global registry: serial runs).
struct SrTally {
  double solves = 0;
  double cg_iterations = 0;
};

SrTally sr_tally() {
  const vqmc::telemetry::MetricsSnapshot snap =
      vqmc::telemetry::metrics().snapshot();
  SrTally tally;
  if (const auto* h = snap.find_histogram("sr.cg_iterations")) {
    tally.solves = double(h->count);
    tally.cg_iterations = h->sum;
  }
  return tally;
}

/// Layer probes on the workload's own model and a fresh batch from its
/// own sampler: wall microseconds per row of each `*_ws` virtual.
void probe_model(vqmc::WavefunctionModel& model, vqmc::Sampler& sampler,
                 std::size_t rows, Report& report) {
  vqmc::Matrix batch(rows, model.num_spins());
  sampler.sample(batch);
  const auto ws = model.make_workspace();
  std::vector<vqmc::Real> out(rows);
  std::vector<vqmc::Real> coeff(rows, vqmc::Real(1) / vqmc::Real(rows));
  std::vector<vqmc::Real> grad(model.num_parameters());
  vqmc::Matrix per_sample(rows, model.num_parameters());
  const double per_row = 1.0 / double(rows);
  report.layer("nn.log_psi_us_per_row",
               probe_us([&] { model.log_psi_ws(batch, out, ws.get()); }) *
                   per_row);
  report.layer("nn.grad_us_per_row", probe_us([&] {
                 model.accumulate_log_psi_gradient_ws(batch, coeff, grad,
                                                      ws.get());
               }) * per_row);
  report.layer("nn.per_sample_grad_us_per_row", probe_us([&] {
                 model.log_psi_gradient_per_sample_ws(batch, per_sample,
                                                      ws.get());
               }) * per_row);
}

}  // namespace

Report run_serial_training(const Options& options, const PassPlan& plan) {
  const SerialSpec spec = serial_spec(options);
  Report report;
  const auto calibration = [&spec](double speed) {
    return std::pow(speed, spec.speed_exponent);
  };

  std::vector<double> setup_s;
  double t0 = now_s();
  std::unique_ptr<SerialRig> rig = build_rig(spec, options.seed, plan.traced);
  setup_s.push_back((now_s() - t0) * calibration(core_speed()));
  vqmc::VqmcTrainer& trainer = *rig->trainer;

  long long target = plan.iterations;
  if (target <= 0 && options.smoke) target = spec.smoke_iterations;
  const vqmc::SamplerStatistics before = rig->sampler->statistics();
  const SrTally sr_before = sr_tally();
  if (plan.traced) start_tracer();

  // Per timed iteration: wall time, the core's speed measured right after
  // it, and the calibrated time every timing reports.
  std::vector<double> wall_us, speeds, step_us;
  vqmc::PhaseBreakdown phases;
  std::uint64_t nonfinite_energy = 0;
  std::string error;
  const double deadline = now_us() + plan.seconds * 1e6;
  while (target > 0 ? (long long)wall_us.size() < target
                    : wall_us.size() < 3 || now_us() < deadline) {
    const double step_start = now_us();
    vqmc::IterationMetrics m;
    try {
      const vqmc::telemetry::Span span("trainer.step");
      m = trainer.step();
    } catch (const std::exception& e) {
      error = e.what();
      break;
    }
    wall_us.push_back(now_us() - step_start);
    speeds.push_back(core_speed());
    const double factor = calibration(speeds.back());
    step_us.push_back(wall_us.back() * factor);
    if (!std::isfinite(double(m.energy))) ++nonfinite_energy;
    phases.sample += m.phases.sample * factor;
    phases.local_energy += m.phases.local_energy * factor;
    phases.gradient += m.phases.gradient * factor;
    phases.sr_solve += m.phases.sr_solve * factor;
    phases.optimizer += m.phases.optimizer * factor;
  }
  if (plan.traced) vqmc::telemetry::Tracer::instance().stop();

  const auto iterations = double(wall_us.size());
  const vqmc::SamplerStatistics after = rig->sampler->statistics();
  const std::uint64_t nonfinite_draws =
      after.nonfinite_rejections - before.nonfinite_rejections;
  report.iterations = (long long)wall_us.size();
  report.attempted = wall_us.size() + (error.empty() ? 0 : 1);
  report.failed = nonfinite_energy + (error.empty() ? 0 : 1);
  const std::span<const vqmc::Real> params = rig->model->parameters();
  report.params_fnv = fnv_of(std::vector<double>(params.begin(), params.end()));
  report.seconds_per_unit = median(step_us) * 1e-6;

  report.check("training.no_error", error.empty(), error);
  report.check("training.finite_energies", nonfinite_energy == 0,
               std::to_string(nonfinite_energy) + " non-finite iterations");
  report.check("training.no_guard_trips",
               trainer.health_counters().guard_trips == 0);
  report.check("sampler.nonfinite_zero", nonfinite_draws == 0,
               std::to_string(nonfinite_draws) + " clamped/rejected draws");

  double total_us = 0;
  for (double us : step_us) total_us += us;
  report.e2e("rows_per_s", double(spec.batch) * iterations / (total_us * 1e-6));
  report.e2e("latency_p50_ms", median(step_us) * 1e-3);
  report.e2e("peak_rss_mb", peak_rss_mb());
  // The remaining set-ups are timed after the measured loop, so that the
  // memory they churn stays out of its peak.
  for (int r = 1; r < plan.setup_repeats; ++r) {
    t0 = now_s();
    build_rig(spec, options.seed, plan.traced);
    setup_s.push_back((now_s() - t0) * calibration(core_speed()));
  }
  report.e2e("setup_s", median(setup_s));

  if (!plan.traced || wall_us.empty()) return report;

  // Per-layer numbers of the traced pass.
  const auto events = vqmc::telemetry::Tracer::instance().events();
  const double per_iter_ms = 1e3 / iterations;
  const double speed = median(speeds);
  const double factor = calibration(speed);
  report.layer("run.latency_p90_ms", quantile(step_us, 0.9) * 1e-3);
  report.layer("run.wall_latency_p50_ms", median(wall_us) * 1e-3);
  report.layer("host.speed", speed);
  report.layer("trainer.iterations", iterations);
  report.layer("trainer.sample_ms", phases.sample * per_iter_ms);
  report.layer("trainer.local_energy_ms", phases.local_energy * per_iter_ms);
  report.layer("trainer.gradient_ms", phases.gradient * per_iter_ms);
  report.layer("trainer.sr_ms", phases.sr_solve * per_iter_ms);
  report.layer("trainer.optimizer_ms", phases.optimizer * per_iter_ms);
  report.layer("trainer.other_ms",
               mean(step_us) * 1e-3 - phases.total() * per_iter_ms);

  const double proposals = double(after.proposals - before.proposals);
  report.layer("sampler.forward_passes_per_iter",
               double(after.forward_passes - before.forward_passes) /
                   iterations);
  report.layer("sampler.acceptance",
               proposals > 0
                   ? double(after.accepted - before.accepted) / proposals
                   : 0);
  report.layer("sampler.nonfinite", double(nonfinite_draws));

  report.layer("optim.step_ms", mean(rig->timed->step_us()) * factor * 1e-3);
  const SrTally sr_after = sr_tally();
  const double solves = sr_after.solves - sr_before.solves;
  const double cg = sr_after.cg_iterations - sr_before.cg_iterations;
  report.layer("sr.cg_iters", solves > 0 ? cg / solves : 0);
  report.layer("sr.ms_per_cg_iter",
               cg > 0 ? span_total_us(events, "sr.solve") * factor * 1e-3 / cg
                      : 0);

  const double coverage = child_coverage(events, "iteration");
  report.layer("trace.coverage", coverage);
  report.check("trace.iteration_coverage",
               coverage >= required_coverage(options));

  probe_model(*rig->model, *rig->sampler, spec.batch, report);
  return report;
}

}  // namespace vqmc_bench
