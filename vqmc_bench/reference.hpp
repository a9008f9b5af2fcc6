#pragma once

/// \file reference.hpp
/// \brief Host-speed calibration.
///
/// The benchmark host is a virtual machine whose cores run up to half as
/// fast while its neighbours are busy, for seconds to minutes at a time,
/// so raw wall times of identical runs differ by more than any useful
/// bound. A fixed arithmetic loop, compiled apart from the library (no
/// library change can alter it), is timed right after each measured unit
/// of work and gives the speed of the core just then. A CPU-bound wall time
/// multiplied by that speed is a calibrated time: the time the work would
/// have taken on the baseline machine at rest. It repeats across slow
/// spells, and still moves with any change to the program.

namespace vqmc_bench {

/// Loop blocks a calibration runs after one unit of work: a short block
/// count keeps the overhead near 2% of a training step.
constexpr int kSpeedBlocks = 30;

/// Run `blocks` blocks of the reference loop on the calling thread and
/// return the core's speed: the loop's time on an idle core of the baseline
/// machine over its time now (about 1 on that machine at rest, below 1
/// when the core is slow).
double core_speed(int blocks = kSpeedBlocks);

/// The same loop on `threads` new threads at once, while the caller waits;
/// the mean of their speeds.
double machine_speed(int threads, int blocks = kSpeedBlocks);

}  // namespace vqmc_bench
