#pragma once

/// \file reporting.hpp
/// \brief Export of training histories for external analysis/plotting.
///
/// The bench binaries print paper-style tables; downstream users usually
/// want the raw per-iteration series instead (e.g. to regenerate Figure 2
/// in their own plotting stack). These helpers serialize the trainer's
/// MetricsHistory as CSV or JSON.

#include <string>
#include <vector>

#include "core/trainer.hpp"

namespace vqmc {

/// CSV with header
/// `iteration,energy,std_dev,best_energy,seconds,guard_trips,guard_reason`
/// followed by one `<name>_seconds` column per kPhases row, in table order
/// (common/phases.hpp, DESIGN.md §5d): the iteration's phase breakdown.
std::string metrics_to_csv(const std::vector<IterationMetrics>& history);

/// JSON array of objects with the same fields; the phase breakdown is a
/// nested `"phases"` object keyed by the kPhases names. Numbers are emitted with enough digits to
/// round-trip doubles; non-finite energies (guard-tripped iterations)
/// serialize as null.
std::string metrics_to_json(const std::vector<IterationMetrics>& history);

/// Write `content` to `path`, throwing vqmc::Error on I/O failure.
void write_text_file(const std::string& path, const std::string& content);

}  // namespace vqmc
