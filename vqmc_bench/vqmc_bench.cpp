/// \file vqmc_bench.cpp
/// \brief The repository benchmark: one workload per invocation.
///
///   vqmc_bench --workload <name> --seed <s> [--seconds <t>] [--json <out>]
///              [--trace <file>] [--smoke]
///
/// Every input is generated from --seed. Without --trace the workload runs
/// once with tracing off and prints every end-to-end metric as
/// `<workload> <metric> <value> <unit>`. With --trace it runs twice, each
/// for half of --seconds and each in a child process: untraced, then the
/// same work traced (spans, Optimizer and Communicator decorators, layer
/// probes), and prints every per-layer metric; the traced pass must end
/// with the same parameters. Exit status is 0 only when every output check
/// passed.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <thread>

#include "common.hpp"
#include "tensor/simd.hpp"

namespace {

using namespace vqmc_bench;

#ifndef VQMC_BENCH_BUILD_TYPE
#define VQMC_BENCH_BUILD_TYPE "unknown"
#endif

struct Workload {
  const char* name;
  Report (*run)(const Options&, const PassPlan&);
};

constexpr Workload kWorkloads[] = {
    {"tim_made", run_serial_training},  {"tim_rbm", run_serial_training},
    {"maxcut_sr", run_serial_training}, {"dist4_chain", run_dist4_chain},
    {"serve_n1000", run_serve_n1000},
};

const char* kUsage =
    "usage: vqmc_bench --workload <name> [--seed <s>] [--seconds <t>]\n"
    "                  [--json <out>] [--trace <file>] [--smoke]\n"
    "                  [--scratch <dir>] [--commit <id>]\n"
    "workloads: tim_made tim_rbm maxcut_sr dist4_chain serve_n1000\n";

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_metrics(const std::vector<MetricSpec>& specs,
                         const std::map<std::string, double>& values) {
  std::string out = "{";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    out += (i ? ", " : "") + json_string(specs[i].name) + ": {\"value\": " +
           json_number(values.at(specs[i].name)) + ", \"unit\": " +
           json_string(specs[i].unit) + "}";
  }
  return out + "}";
}

/// Values of `reported` in the order of `specs`; a metric missing from a
/// traced report reads 0 (the workload does not run that layer). Throws on
/// a name outside the list, which would be a benchmark bug.
std::map<std::string, double> collect(const std::vector<MetricSpec>& specs,
                                      const std::vector<Metric>& reported,
                                      bool missing_is_zero) {
  std::map<std::string, double> values;
  if (missing_is_zero)
    for (const MetricSpec& s : specs) values[s.name] = 0;
  for (const Metric& m : reported) {
    bool known = false;
    for (const MetricSpec& s : specs) known = known || m.name == s.name;
    if (!known) throw std::logic_error("unlisted metric " + m.name);
    values[m.name] = m.value;
  }
  for (const MetricSpec& s : specs)
    if (!values.count(s.name))
      throw std::logic_error(std::string("metric not reported: ") + s.name);
  return values;
}

/// One pass of `workload`; a traced pass also writes the trace files and
/// reports what the tracer dropped.
Report run_pass(const Workload& workload, const Options& options,
                const PassPlan& plan) {
  Report report = workload.run(options, plan);
  if (plan.traced) {
    const auto& tracer = vqmc::telemetry::Tracer::instance();
    write_trace_files(options.trace_path, tracer.events());
    report.layer("trace.dropped", double(tracer.dropped()));
    report.check("trace.nothing_dropped", tracer.dropped() == 0);
  }
  return report;
}

/// A report as text: one counter, metric or check per line (check details
/// last, newlines flattened), doubles to 17 digits so they read back
/// exactly.
std::string serialize(const Report& r) {
  std::ostringstream out;
  out << std::setprecision(17) << "iterations " << r.iterations
      << "\nattempted " << r.attempted << "\nfailed " << r.failed
      << "\nfnv " << r.params_fnv << "\nspu " << r.seconds_per_unit << "\n";
  for (const Metric& m : r.end_to_end)
    out << "e2e " << m.name << ' ' << m.value << '\n';
  for (const Metric& m : r.per_layer)
    out << "layer " << m.name << ' ' << m.value << '\n';
  for (const Check& c : r.checks) {
    std::string detail = c.detail;
    std::replace(detail.begin(), detail.end(), '\n', ' ');
    out << "check " << c.name << ' ' << c.ok << ' ' << detail << '\n';
  }
  return out.str();
}

Report deserialize(const std::string& text) {
  Report r;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string tag, name, value;
    fields >> tag;
    if (tag == "iterations") {
      fields >> r.iterations;
    } else if (tag == "attempted") {
      fields >> r.attempted;
    } else if (tag == "failed") {
      fields >> r.failed;
    } else if (tag == "fnv") {
      fields >> r.params_fnv;
    } else if (tag == "spu") {
      fields >> value;
      r.seconds_per_unit = std::stod(value);
    } else if (tag == "e2e" || tag == "layer") {
      fields >> name >> value;
      (tag == "e2e" ? r.end_to_end : r.per_layer)
          .push_back({name, std::stod(value)});
    } else if (tag == "check") {
      bool ok = false;
      fields >> name >> ok;
      std::string detail;
      std::getline(fields >> std::ws, detail);
      r.check(name, ok, detail);
    } else {
      throw std::runtime_error("unreadable pass report line: " + line);
    }
  }
  return r;
}

/// Run one pass in a forked child and return its report, so that every
/// pass starts from a fresh heap, as an untraced run does. A second rig
/// built in the same process ran tim_rbm's local energy about 10% slower
/// whatever the pass measured: the allocator placed its buffers
/// differently once the first rig's were freed.
Report run_in_child(const Workload& workload, const Options& options,
                    const PassPlan& plan) {
  int fds[2];
  if (pipe(fds) != 0)
    throw std::system_error(errno, std::generic_category(), "pipe");
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    const int error = errno;
    close(fds[0]);
    close(fds[1]);
    throw std::system_error(error, std::generic_category(), "fork");
  }
  if (pid == 0) {
    close(fds[0]);
    int code = 0;
    try {
      const std::string text = serialize(run_pass(workload, options, plan));
      for (std::size_t done = 0; done < text.size();) {
        const ssize_t wrote =
            write(fds[1], text.data() + done, text.size() - done);
        if (wrote < 0 && errno != EINTR)
          throw std::system_error(errno, std::generic_category(), "write");
        if (wrote > 0) done += std::size_t(wrote);
      }
    } catch (const std::exception& e) {
      std::cerr << "vqmc_bench: " << options.workload << " failed: " << e.what()
                << "\n";
      code = 1;
    }
    std::fflush(nullptr);
    _exit(code);
  }
  close(fds[1]);
  std::string text;
  char buffer[4096];
  for (;;) {
    const ssize_t got = read(fds[0], buffer, sizeof buffer);
    if (got > 0) {
      text.append(buffer, std::size_t(got));
    } else if (got == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("a pass ended abnormally");
  return deserialize(text);
}

bool parse_args(int argc, char** argv, Options& options, std::string& json,
                std::string& commit) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value());
    } else if (arg == "--json") {
      json = value();
    } else if (arg == "--trace") {
      options.trace_path = value();
    } else if (arg == "--scratch") {
      options.scratch_dir = value();
    } else if (arg == "--commit") {
      commit = value();
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else {
      return false;
    }
  }
  return !options.workload.empty() && options.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  // libgomp reads OMP_NUM_THREADS before main, so pin it by re-executing:
  // more than one OpenMP thread makes iteration times unrepeatable on a
  // small machine.
  const char* omp = std::getenv("OMP_NUM_THREADS");
  if (omp == nullptr || std::strcmp(omp, "1") != 0) {
    setenv("OMP_NUM_THREADS", "1", 1);
    execv("/proc/self/exe", argv);
    std::perror("vqmc_bench: re-exec with OMP_NUM_THREADS=1");
    return 2;
  }

  Options options;
  std::string json_path;
  std::string commit = "unknown";
  const Workload* workload = nullptr;
  try {
    if (!parse_args(argc, argv, options, json_path, commit)) {
      std::cerr << kUsage;
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "vqmc_bench: " << e.what() << "\n" << kUsage;
    return 2;
  }
  for (const Workload& w : kWorkloads)
    if (options.workload == w.name) workload = &w;
  if (workload == nullptr) {
    std::cerr << "vqmc_bench: unknown workload '" << options.workload << "'\n"
              << kUsage;
    return 2;
  }

  const bool traced = !options.trace_path.empty();
  Report report;
  std::map<std::string, double> values;
  try {
    if (!traced) {
      report = workload->run(options, {options.seconds, false, 0, 3});
      values = collect(end_to_end_metrics(), report.end_to_end, false);
    } else {
      const double half = options.seconds / 2;
      const Report plain =
          run_in_child(*workload, options, {half, false, 0, 1});
      report =
          run_in_child(*workload, options, {half, true, plain.iterations, 1});
      report.layer("trace.overhead_frac",
                   report.seconds_per_unit / plain.seconds_per_unit - 1);
      report.check("trace.same_parameters_as_untraced",
                   report.params_fnv == plain.params_fnv);
      for (const Check& c : plain.checks)
        report.check("untraced." + c.name, c.ok, c.detail);
      report.attempted += plain.attempted;
      report.failed += plain.failed;
      values = collect(per_layer_metrics(), report.per_layer, true);
    }
  } catch (const std::exception& e) {
    std::cerr << "vqmc_bench: " << options.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }

  const std::vector<MetricSpec>& specs =
      traced ? per_layer_metrics() : end_to_end_metrics();
  for (const MetricSpec& s : specs)
    std::printf("%s %s %.6g %s\n", options.workload.c_str(), s.name,
                values[s.name], s.unit);
  for (const Check& c : report.checks)
    std::printf("check %s %s%s%s\n", c.name.c_str(), c.ok ? "pass" : "FAIL",
                c.detail.empty() ? "" : " ", c.detail.c_str());
  const bool correct = report.all_ok();
  std::printf("%s %s: %llu attempted, %llu failed\n", options.workload.c_str(),
              correct ? "correct" : "INCORRECT",
              (unsigned long long)report.attempted,
              (unsigned long long)report.failed);

  if (!json_path.empty()) {
    std::ostringstream out;
    char fnv[24];
    std::snprintf(fnv, sizeof fnv, "%016llx",
                  (unsigned long long)report.params_fnv);
    out << "{\"workload\": " << json_string(options.workload)
        << ", \"seed\": " << options.seed
        << ", \"seconds\": " << json_number(options.seconds)
        << ", \"traced\": " << (traced ? "true" : "false")
        << ", \"smoke\": " << (options.smoke ? "true" : "false")
        << ",\n \"provenance\": {\"commit\": " << json_string(commit)
        << ", \"cpu_model\": " << json_string(cpu_model())
        << ", \"nproc\": " << std::thread::hardware_concurrency()
        << ", \"simd_level\": "
        << json_string(vqmc::simd::level_name(vqmc::simd::active_level()))
        << ", \"omp_threads\": " << json_string(std::getenv("OMP_NUM_THREADS"))
        << ", \"compiler\": " << json_string(__VERSION__)
        << ", \"build_type\": " << json_string(VQMC_BENCH_BUILD_TYPE)
        << ", \"seed\": " << options.seed << "},\n \"correct\": "
        << (correct ? "true" : "false") << ", \"attempted\": "
        << report.attempted << ", \"failed\": " << report.failed
        << ", \"params_fnv\": " << json_string(fnv)
        << ", \"iterations\": " << report.iterations << ",\n \"checks\": {";
    for (std::size_t i = 0; i < report.checks.size(); ++i)
      out << (i ? ", " : "") << json_string(report.checks[i].name) << ": "
          << (report.checks[i].ok ? "true" : "false");
    out << "},\n \"" << (traced ? "per_layer" : "end_to_end")
        << "\": " << json_metrics(specs, values) << "}\n";
    std::ofstream file(json_path);
    file << out.str();
    if (!file.good()) {
      std::cerr << "vqmc_bench: cannot write " << json_path << "\n";
      return 2;
    }
  }
  return correct ? 0 : 1;
}
