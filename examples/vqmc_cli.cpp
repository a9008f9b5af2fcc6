/// \file vqmc_cli.cpp
/// \brief Full-featured command-line driver: assemble any (Hamiltonian,
/// model, sampler, optimizer) combination supported by the library, train,
/// report, and optionally checkpoint / export metrics.
///
/// Examples:
///   vqmc_cli --problem tim --n 20 --model MADE --sampler AUTO \
///            --optimizer ADAM --iterations 300
///   vqmc_cli --problem maxcut --n 60 --model RBM --sampler MCMC \
///            --optimizer SGD+SR --metrics-csv run.csv
///   vqmc_cli --problem chain --n 24 --coupling 1 --field 1 \
///            --save-checkpoint model.ckpt
///   vqmc_cli --problem chain --n 24 --load-checkpoint model.ckpt \
///            --iterations 50   # resume

#include <iostream>
#include <memory>

#include "common/options.hpp"
#include "common/table.hpp"
#include "core/checkpoint.hpp"
#include "core/factory.hpp"
#include "core/reporting.hpp"
#include "core/trainer.hpp"
#include "obs/exposition.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/jsonl.hpp"
#include "telemetry/metrics_registry.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/tracer.hpp"
#include "hamiltonian/exact.hpp"
#include "hamiltonian/heisenberg.hpp"
#include "hamiltonian/maxcut.hpp"
#include "hamiltonian/qubo.hpp"
#include "hamiltonian/transverse_field_ising.hpp"

using namespace vqmc;

namespace {

std::unique_ptr<Hamiltonian> make_problem(const std::string& kind,
                                          std::size_t n, Real coupling,
                                          Real field, std::uint64_t seed) {
  if (kind == "tim")
    return std::make_unique<TransverseFieldIsing>(
        TransverseFieldIsing::random_dense(n, seed));
  if (kind == "chain")
    return std::make_unique<TransverseFieldIsing>(
        TransverseFieldIsing::uniform_chain(n, coupling, field));
  if (kind == "maxcut")
    return std::make_unique<MaxCut>(MaxCut::paper_instance(n, seed));
  if (kind == "qubo")
    return std::make_unique<Qubo>(Qubo::random_dense(n, seed));
  if (kind == "xxz")
    return std::make_unique<XxzHeisenberg>(
        XxzHeisenberg::chain(n, coupling, field));
  throw Error("unknown problem '" + kind +
              "' (expected tim, chain, maxcut, qubo or xxz)");
}

}  // namespace

int main(int argc, char** argv) {
  OptionParser opts("vqmc_cli", "general VQMC driver");
  opts.add_option("problem", "tim", "tim | chain | maxcut | qubo | xxz");
  opts.add_option("n", "20", "problem size (spins / vertices)");
  opts.add_option("coupling", "1.0", "J for chain/xxz problems");
  opts.add_option("field", "1.0", "h for chain, Jxy for xxz");
  opts.add_option("model", "MADE", "MADE | DeepMADE | RNN | RBM");
  opts.add_option("hidden", "0", "latent size (0 = family default)");
  opts.add_option("sampler", "AUTO", "AUTO | MCMC");
  opts.add_option("optimizer", "ADAM", "SGD | ADAM | SGD+SR | ADAM+SR");
  opts.add_option("iterations", "300", "training iterations");
  opts.add_option("batch", "1024", "training batch size");
  opts.add_option("eval-batch", "1024", "evaluation batch size");
  opts.add_option("seed", "0", "master seed");
  opts.add_option("clip", "0", "max gradient norm (0 = off)");
  opts.add_option("guard-policy", "throw",
                  "health-guard recovery on non-finite values/divergence: "
                  "throw | skip | rollback");
  opts.add_option("divergence-window", "0",
                  "trip the guard after this many consecutive exploded "
                  "iterations (0 = off)");
  opts.add_option("metrics-csv", "", "write per-iteration metrics CSV here");
  opts.add_option("metrics-json", "", "write per-iteration metrics JSON here");
  opts.add_option("save-checkpoint", "", "write final parameters here");
  opts.add_option("load-checkpoint", "", "restore parameters before training");
  opts.add_option("checkpoint", "",
                  "training-state checkpoint base path (periodic full-state "
                  "saves; resume with --resume)");
  opts.add_option("checkpoint-every", "25",
                  "write a training checkpoint every k iterations (with "
                  "--checkpoint)");
  opts.add_option("resume", "",
                  "resume the full training state (parameters, optimizer "
                  "moments, RNG streams, iteration counter) from this "
                  "training checkpoint; the continuation is bit-identical "
                  "to an uninterrupted run");
  opts.add_flag("exact", "also compute the exact ground energy (n <= 20)");
  opts.add_option("trace-out", "",
                  "write a Chrome-trace JSON of the run's phase spans here "
                  "(open in chrome://tracing or Perfetto)");
  opts.add_option("log-json", "",
                  "append structured JSONL events (one object per line) here");
  opts.add_flag("telemetry-off",
                "disable all telemetry (metrics, spans) at runtime");
  opts.add_option("obs-endpoint", "",
                  "serve live status/metrics scrapes here (unix:///path or "
                  "tcp://host:port; poll with vqmc_top)");
  opts.add_option("crash-dir", "",
                  "write a flight-recorder crash report (JSONL) here on "
                  "fatal signal or uncaught error");
  try {
    if (!opts.parse(argc, argv)) return 0;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }

  try {
    if (opts.get_flag("telemetry-off")) telemetry::set_enabled(false);
    if (!opts.get_string("crash-dir").empty()) {
      telemetry::FlightRecorder::instance().set_crash_dir(
          opts.get_string("crash-dir"));
      telemetry::FlightRecorder::install_crash_signal_handler();
    }
    // Live exposition (DESIGN.md §5i): opt-in background scrape server over
    // the global registry and the flight-recorder ring. Inert (no thread,
    // no socket) unless --obs-endpoint is given.
    std::unique_ptr<obs::StatusServer> obs_server;
    if (!opts.get_string("obs-endpoint").empty()) {
      obs::StatusServerOptions obs_options;
      obs_options.endpoint = opts.get_string("obs-endpoint");
      obs_server = std::make_unique<obs::StatusServer>(obs_options, [] {
        obs::StatusReport report;
        report.add_metrics(telemetry::MetricsRegistry::global().snapshot());
        const telemetry::FlightRecorder& recorder =
            telemetry::FlightRecorder::instance();
        telemetry::FlightRecord last;
        if (recorder.latest(last)) {
          report.set_field("energy", last.energy);
          report.set_field("guard_trips", double(last.guard_trips));
        }
        report.set_field("iteration_rate", recorder.iteration_rate());
        return report;
      });
      std::cout << "obs endpoint: " << obs_server->endpoint() << "\n";
    }
    if (!opts.get_string("log-json").empty())
      telemetry::JsonlLogger::instance().open(opts.get_string("log-json"));
    const std::string trace_path = opts.get_string("trace-out");
    if (!trace_path.empty()) telemetry::Tracer::instance().start();
    const std::size_t n = std::size_t(opts.get_int("n"));
    const std::uint64_t seed = std::uint64_t(opts.get_int("seed"));
    const auto problem =
        make_problem(opts.get_string("problem"), n,
                     Real(opts.get_double("coupling")),
                     Real(opts.get_double("field")), seed + 1000);

    const std::string optimizer_kind = opts.get_string("optimizer");
    auto model = make_model(opts.get_string("model"), n,
                            std::size_t(opts.get_int("hidden")), seed);
    if (!opts.get_string("load-checkpoint").empty())
      load_checkpoint(opts.get_string("load-checkpoint"), *model);
    auto sampler = make_sampler(opts.get_string("sampler"), *model, seed + 1);
    auto optimizer = make_optimizer(optimizer_kind);

    TrainerConfig config;
    config.iterations = opts.get_int("iterations");
    config.batch_size = std::size_t(opts.get_int("batch"));
    config.use_sr = optimizer_label_uses_sr(optimizer_kind);
    config.max_grad_norm = Real(opts.get_double("clip"));
    config.guard.policy =
        health::parse_guard_policy(opts.get_string("guard-policy"));
    config.guard.divergence_window = opts.get_int("divergence-window");
    config.checkpoint_path = opts.get_string("checkpoint");
    config.checkpoint_every = opts.get_int("checkpoint-every");
    VqmcTrainer trainer(*problem, *model, *sampler, *optimizer, config);
    if (!opts.get_string("resume").empty()) {
      const TrainingSnapshot snap =
          load_training_checkpoint(opts.get_string("resume"));
      trainer.restore(snap);
      std::cout << "resumed from '" << opts.get_string("resume")
                << "' at iteration " << snap.iteration << "\n";
    }

    std::cout << "problem=" << problem->name() << " n=" << n
              << " model=" << model->name() << " (d=" << model->num_parameters()
              << ") sampler=" << sampler->name()
              << " optimizer=" << optimizer_kind << "\n";
    trainer.run();

    Matrix samples;
    const EnergyEstimate est = trainer.evaluate_with_samples(
        std::size_t(opts.get_int("eval-batch")), samples);
    std::cout << "energy " << est.mean << " +- " << est.std_error
              << " | std(l) " << est.std_dev << " | train "
              << format_fixed(trainer.training_seconds(), 2) << " s\n";

    // Phase attribution over the whole run (DESIGN.md §5d).
    PhaseBreakdown totals;
    for (const IterationMetrics& m : trainer.history()) totals += m.phases;
    if (totals.total() > 0) {
      const char* sep = "phases: ";
      for (const Phase& phase : kPhases) {
        std::cout << sep << phase.name << ' '
                  << format_fixed(totals.*phase.member, 2) << 's';
        sep = " | ";
      }
      std::cout << '\n';
    }

    const health::HealthCounters& hc = trainer.health_counters();
    if (hc.guard_trips > 0) {
      std::cout << "health: " << hc.guard_trips << " guard trip(s) ("
                << hc.skipped_iterations << " skipped, " << hc.rollbacks
                << " rollbacks) | last: " << hc.last_trip_reason << "\n";
    }

    if (const auto* maxcut = dynamic_cast<const MaxCut*>(problem.get())) {
      Real best = 0;
      for (std::size_t k = 0; k < samples.rows(); ++k)
        best = std::max(best, maxcut->cut_value(samples.row(k)));
      std::cout << "mean cut " << maxcut->cut_from_energy(est.mean)
                << " | best sampled cut " << best << "\n";
    }
    if (opts.get_string("problem") == "chain") {
      const Real exact = tfim_chain_ground_energy(
          n, Real(opts.get_double("coupling")), Real(opts.get_double("field")));
      std::cout << "exact chain energy (Jordan-Wigner): " << exact
                << " | relative error "
                << (est.mean - exact) / std::abs(exact) << "\n";
    } else if (opts.get_flag("exact") && n <= 20) {
      std::cout << "exact ground energy (Lanczos): "
                << exact_ground_state(*problem).energy << "\n";
    }

    if (!opts.get_string("metrics-csv").empty())
      write_text_file(opts.get_string("metrics-csv"),
                      metrics_to_csv(trainer.history()));
    if (!opts.get_string("metrics-json").empty())
      write_text_file(opts.get_string("metrics-json"),
                      metrics_to_json(trainer.history()));
    if (!opts.get_string("save-checkpoint").empty())
      save_checkpoint(opts.get_string("save-checkpoint"), *model);

    if (!trace_path.empty()) {
      telemetry::Tracer::instance().stop();
      telemetry::Tracer::instance().write_chrome_trace(trace_path);
      std::cout << "trace written to " << trace_path << " ("
                << telemetry::Tracer::instance().events().size()
                << " spans)\n";
    }
    telemetry::JsonlLogger::instance().close();
  } catch (const Error& e) {
    const std::string report =
        telemetry::FlightRecorder::instance().dump_crash_report(e.what());
    if (!report.empty())
      std::cerr << "crash report written to " << report << "\n";
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
