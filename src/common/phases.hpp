#pragma once

/// \file phases.hpp
/// \brief The training step's phases, named once (DESIGN.md §5d). The
/// step's spans and histograms, its JSONL event, the flight record, the
/// metrics CSV/JSON, the bench summaries and the CLI totals all iterate
/// `kPhases`, so adding a phase is one member and one row.

#include <iterator>

namespace vqmc {

/// Where one iteration's wall time went (seconds, DESIGN.md §5d). The
/// phases partition the step: sampling, local-energy measurement, energy
/// gradient, SR preconditioning, gradient allreduce (distributed runs
/// only), optimizer update, periodic checkpoint write.
struct PhaseBreakdown {
  double sample = 0;
  double local_energy = 0;
  double gradient = 0;
  double sr_solve = 0;
  double allreduce = 0;
  double optimizer = 0;
  double checkpoint = 0;

  [[nodiscard]] double total() const;
  PhaseBreakdown& operator+=(const PhaseBreakdown& other);
};

/// One row of the phase table. The derived names are literals, so no sink
/// assembles a name at run time and the crash handler formats them without
/// allocating.
struct Phase {
  const char* name;  ///< span name and metrics-JSON key, e.g. "sr"
  double PhaseBreakdown::*member;
  const char* key;        ///< "<name>_seconds": CSV, JSONL, crash report
  const char* histogram;  ///< "phase.<name>_seconds"
};

#define VQMC_PHASE(name, member) \
  {#name, &PhaseBreakdown::member, #name "_seconds", "phase." #name "_seconds"}

/// The phases in step order.
inline constexpr Phase kPhases[] = {
    VQMC_PHASE(sample, sample),
    VQMC_PHASE(local_energy, local_energy),
    VQMC_PHASE(gradient, gradient),
    VQMC_PHASE(sr, sr_solve),
    VQMC_PHASE(allreduce, allreduce),
    VQMC_PHASE(optimizer, optimizer),
    VQMC_PHASE(checkpoint, checkpoint),
};

#undef VQMC_PHASE

static_assert(std::size(kPhases) * sizeof(double) == sizeof(PhaseBreakdown),
              "every PhaseBreakdown member needs a kPhases row");

inline double PhaseBreakdown::total() const {
  double sum = 0;
  for (const Phase& phase : kPhases) sum += this->*phase.member;
  return sum;
}

inline PhaseBreakdown& PhaseBreakdown::operator+=(
    const PhaseBreakdown& other) {
  for (const Phase& phase : kPhases) this->*phase.member += other.*phase.member;
  return *this;
}

}  // namespace vqmc
