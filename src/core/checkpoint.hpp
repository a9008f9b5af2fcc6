#pragma once

/// \file checkpoint.hpp
/// \brief Checkpointing: crash-safe parameter snapshots and full
/// training-state checkpoint/restart.
///
/// Two formats live here:
///
///  * **Parameter checkpoints** ("VQMCCP03"): the flat parameter vector with
///    model identity (name, spin count, parameter count) — enough to
///    transplant trained weights.
///  * **Training checkpoints** ("VQMCTS01", format version 3): the *entire*
///    mutable training state — parameters, optimizer moments, sampler
///    RNG/chain state, iteration counter and guard state — so a
///    killed-and-resumed run is bit-identical to an uninterrupted one
///    (DESIGN.md §5c). This is what the multi-hour paper-scale runs
///    (Table 7) need to survive preemption.
///
/// Each record ends in a u32 CRC-32C (`crc32c`, tensor/kernels.hpp) of
/// every byte before it. Files of the older formats are rejected with a
/// vqmc::Error that names the format; there is no converter. "VQMCCP01"
/// and training version 1 carried an FNV-1a checksum; "VQMCCP02" and
/// training version 2 stored MADE's hidden units in cyclic degree order,
/// which would load as a silently permuted function now that they are
/// stored in ascending degree order (nn/masked_plan.hpp).
///
/// Both writers are crash-safe: the record is serialized in memory, written
/// to `<path>.tmp`, fsync'd and atomically renamed over `<path>`, so a crash
/// mid-write can never destroy the previous good checkpoint. Both loaders
/// reject truncation explicitly (a short read is reported as truncation, not
/// as a checksum mismatch) and verify every identity field against the
/// target so a checkpoint can never be silently applied to the wrong
/// architecture. `CheckpointKeeper` adds periodic-write bookkeeping with
/// last-k retention.

#include <cstdint>
#include <string>
#include <vector>

#include "nn/wavefunction.hpp"

namespace vqmc {

/// Write `model`'s parameters to `path` (atomic tmp+fsync+rename). Throws
/// vqmc::Error on I/O failure.
void save_checkpoint(const std::string& path, const WavefunctionModel& model);

/// Restore parameters from `path` into `model`. Throws vqmc::Error if the
/// file is missing/truncated/corrupt or was written for a different
/// architecture (mismatched name, spin count or parameter count).
void load_checkpoint(const std::string& path, WavefunctionModel& model);

/// FNV-1a 64-bit hash of a byte range: the parameter fingerprint that
/// vqmc_launch and vqmc_bench print as `params_fnv`. No frame or checkpoint
/// uses it; their checksum is crc32c.
std::uint64_t fnv1a64(const void* data, std::size_t bytes);

/// Fsync the directory containing `path`, making a just-renamed file's
/// directory entry durable (on journaled filesystems a rename alone can be
/// rolled back by a power loss until its directory is synced). Returns
/// false when the directory cannot be opened or synced. Every checkpoint
/// writer calls this after its atomic rename; exposed for tests.
bool fsync_parent_directory(const std::string& path);

/// The complete mutable state of a training run at an iteration boundary.
/// The identity fields (names and sizes) are verified on restore; the state
/// vectors use each component's own serialization layout (see
/// Optimizer::serialize_state, Sampler::serialize_state,
/// VqmcTrainer::snapshot).
struct TrainingSnapshot {
  std::string model_name;
  std::string optimizer_name;
  std::string sampler_name;
  std::uint64_t num_spins = 0;
  std::uint64_t num_parameters = 0;
  std::int64_t iteration = 0;
  std::vector<Real> parameters;
  std::vector<Real> optimizer_state;
  std::vector<std::uint64_t> sampler_state;
  std::vector<Real> trainer_state;
};

/// Serialize `snapshot` to `path` atomically (tmp+fsync+rename). Throws
/// vqmc::Error on I/O failure.
void save_training_checkpoint(const std::string& path,
                              const TrainingSnapshot& snapshot);

/// Parse a training checkpoint. Throws vqmc::Error on a missing file, bad
/// magic/version, truncation (detected structurally, before the checksum is
/// consulted) or checksum mismatch.
TrainingSnapshot load_training_checkpoint(const std::string& path);

/// Periodic-checkpoint bookkeeping: every write() stores the snapshot both
/// under `<base>` (the always-current resume point) and under
/// `<base>.iter<N>` (history), pruning history beyond the newest
/// `keep_last` entries. The snapshot is serialized and checksummed once and
/// the same bytes go to both files. All writes are atomic, so a crash
/// between the two writes leaves at worst a stale-but-valid `<base>`.
class CheckpointKeeper {
 public:
  explicit CheckpointKeeper(std::string base_path, int keep_last = 3);

  /// Persist `snapshot`; prunes the oldest retained history file when the
  /// retention budget is exceeded.
  void write(const TrainingSnapshot& snapshot);

  [[nodiscard]] const std::string& base_path() const { return base_path_; }

  /// History files currently retained (oldest first).
  [[nodiscard]] const std::vector<std::string>& retained() const {
    return retained_;
  }

 private:
  std::string base_path_;
  int keep_last_;
  std::vector<std::string> retained_;
};

}  // namespace vqmc
