#include "core/reporting.hpp"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/error.hpp"

namespace vqmc {

namespace {

void emit_number(std::ostringstream& oss, double value) {
  oss.precision(std::numeric_limits<double>::max_digits10);
  oss << value;
}

/// JSON has no NaN/inf literals; guard-tripped iterations record NaN
/// energies, which serialize as null.
void emit_json_number(std::ostringstream& oss, double value) {
  if (std::isfinite(value)) {
    emit_number(oss, value);
  } else {
    oss << "null";
  }
}

/// Guard reasons are free-form text; keep them one-CSV-cell / one-JSON-string
/// safe without pulling in a full escaper.
std::string sanitize_reason(const std::string& reason) {
  std::string out;
  out.reserve(reason.size());
  for (const char c : reason) {
    if (c == ',' || c == ';') {
      out += ';';
    } else if (c == '"' || c == '\\') {
      out += '\'';
    } else if (c == '\n' || c == '\r') {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::string metrics_to_csv(const std::vector<IterationMetrics>& history) {
  std::ostringstream oss;
  oss << "iteration,energy,std_dev,best_energy,seconds,guard_trips,"
         "guard_reason";
  for (const Phase& phase : kPhases) oss << ',' << phase.key;
  oss << '\n';
  for (const IterationMetrics& m : history) {
    oss << m.iteration << ',';
    emit_number(oss, m.energy);
    oss << ',';
    emit_number(oss, m.std_dev);
    oss << ',';
    emit_number(oss, m.best_energy);
    oss << ',';
    emit_number(oss, m.seconds);
    oss << ',' << m.guard_trips << ',' << sanitize_reason(m.guard_reason);
    for (const Phase& phase : kPhases) {
      oss << ',';
      emit_number(oss, m.phases.*phase.member);
    }
    oss << '\n';
  }
  return oss.str();
}

std::string metrics_to_json(const std::vector<IterationMetrics>& history) {
  std::ostringstream oss;
  oss << "[";
  for (std::size_t i = 0; i < history.size(); ++i) {
    const IterationMetrics& m = history[i];
    if (i) oss << ",";
    oss << "\n  {\"iteration\": " << m.iteration << ", \"energy\": ";
    emit_json_number(oss, m.energy);
    oss << ", \"std_dev\": ";
    emit_json_number(oss, m.std_dev);
    oss << ", \"best_energy\": ";
    emit_json_number(oss, m.best_energy);
    oss << ", \"seconds\": ";
    emit_number(oss, m.seconds);
    oss << ", \"guard_trips\": " << m.guard_trips << ", \"guard_reason\": \""
        << sanitize_reason(m.guard_reason) << "\"";
    oss << ", \"phases\": {";
    const char* sep = "";
    for (const Phase& phase : kPhases) {
      oss << sep << '"' << phase.name << "\": ";
      emit_number(oss, m.phases.*phase.member);
      sep = ", ";
    }
    oss << "}}";
  }
  oss << (history.empty() ? "]" : "\n]");
  oss << "\n";
  return oss.str();
}

void write_text_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  VQMC_REQUIRE(out.good(), "cannot open '" + path + "' for writing");
  out << content;
  VQMC_REQUIRE(out.good(), "write to '" + path + "' failed");
}

}  // namespace vqmc
