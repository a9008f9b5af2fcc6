#pragma once

/// \file communicator.hpp
/// \brief MPI-style collective-communication interface.
///
/// The training step (VqmcTrainer) is written against this interface so the
/// same code runs on a single process (SelfCommunicator), on thread-backed
/// virtual devices (ThreadCommunicator), on socket-connected processes, or
/// — by dropping in a thin adapter — on real MPI ranks.  The interface is
/// header-only, so vqmc_core uses it without linking vqmc_parallel.  Only
/// the collectives the paper's data-parallel scheme needs are included: the
/// sample sums of one iteration are two allreduces (Section 4), parameters
/// are broadcast once at startup.
///
/// Failure contract (the fault-tolerance layer builds on these rules):
///  * Implementations may enforce a per-collective deadline; a collective
///    that cannot complete within it throws vqmc::CommTimeoutError on every
///    blocked rank instead of waiting forever — no rank is left deadlocked.
///  * A rank may permanently `leave()` the group at a collective boundary
///    (i.e. while it is not inside a collective). Subsequent collectives
///    complete among the surviving ranks only; reductions skip departed
///    ranks' stale contributions deterministically.

#include <chrono>
#include <cstdint>
#include <span>
#include <thread>

#include "tensor/real.hpp"

namespace vqmc::parallel {

/// Collective-communication endpoint for one rank.
///
/// All collectives are synchronizing and must be called by every *live* rank
/// of the group in the same order (the usual MPI contract).
class Communicator {
 public:
  virtual ~Communicator() = default;

  [[nodiscard]] virtual int rank() const = 0;
  [[nodiscard]] virtual int size() const = 0;

  /// Elementwise sum across live ranks; every rank receives the result in
  /// place.
  virtual void allreduce_sum(std::span<Real> data) = 0;

  /// Scalar convenience overload.
  Real allreduce_sum(Real value) {
    allreduce_sum(std::span<Real>(&value, 1));
    return value;
  }

  /// Elementwise max across live ranks, in place.
  virtual void allreduce_max(std::span<Real> data) = 0;

  /// Scalar convenience overload (symmetric with allreduce_sum so single-
  /// and multi-rank call sites read identically).
  Real allreduce_max(Real value) {
    allreduce_max(std::span<Real>(&value, 1));
    return value;
  }

  /// Copy `data` from `root` to every rank, in place.
  virtual void broadcast(std::span<Real> data, int root) = 0;

  /// Block until every live rank has arrived.
  virtual void barrier() = 0;

  /// Number of ranks still participating in collectives (== size() until a
  /// rank leaves the group).
  [[nodiscard]] virtual int live_count() const { return size(); }

  /// Whether rank `r` is still participating in collectives.
  [[nodiscard]] virtual bool is_alive(int r) const {
    return r >= 0 && r < size();
  }

  /// Permanently remove *this* rank from the group. Must be called at a
  /// collective boundary; afterwards this endpoint must not issue further
  /// collectives. Surviving ranks' collectives complete without it.
  virtual void leave() {}

  /// Block for up to `seconds`, returning early if the group is aborted or
  /// torn down. Fault injection uses this to emulate a hung collective
  /// without leaving a detached thread sleeping past the group's lifetime.
  /// The default (no group to watch) is a plain sleep.
  virtual void interruptible_sleep(double seconds) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  }
};

/// Single-rank communicator (the degenerate L = 1 "cluster").
class SelfCommunicator final : public Communicator {
 public:
  using Communicator::allreduce_sum;  // keep the scalar overloads visible
  using Communicator::allreduce_max;

  [[nodiscard]] int rank() const override { return 0; }
  [[nodiscard]] int size() const override { return 1; }
  void allreduce_sum(std::span<Real> /*data*/) override {}
  void allreduce_max(std::span<Real> /*data*/) override {}
  void broadcast(std::span<Real> /*data*/, int /*root*/) override {}
  void barrier() override {}
};

/// A process-wide SelfCommunicator: it holds no state, so every serial
/// trainer can share it (VqmcTrainer's default communicator).
inline SelfCommunicator& self_communicator() {
  static SelfCommunicator self;
  return self;
}

}  // namespace vqmc::parallel
