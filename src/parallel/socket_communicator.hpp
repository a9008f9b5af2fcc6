#pragma once

/// \file socket_communicator.hpp
/// \brief Real multi-process communicator backend behind the Communicator
/// interface (DESIGN.md §5h).
///
/// `SocketCommunicator` speaks the framed, checksummed wire protocol of
/// `wire_protocol.hpp` over TCP or Unix-domain stream sockets, so the ranks
/// of a group can be separate *processes* (or separate hosts) instead of the
/// threads the ThreadCommunicator virtualizes. The distributed trainer — and
/// everything layered on it: elastic shrink, fault injection, deterministic
/// restart — runs unchanged on top.
///
/// Topology: a two-level reduction tree. Ranks are partitioned into "nodes"
/// of `node_size` consecutive ranks; the lowest rank of each node is its
/// *leader* and rank 0 (always a leader) is the *root*. Members send
/// contributions to their leader, leaders fold their node's contributions in
/// rank order and forward one partial to the root, the root folds partials
/// in node order and scatters the result (plus the membership bitmap) back
/// down. With `node_size == 0` (the default) the tree degenerates to a flat
/// star rooted at rank 0 whose fold order is exactly the thread backend's
/// flat rank-order fold. The root doubles as the group's sequencer: every
/// survivor receives the *same* fold and the same membership view, which is
/// what makes shrink deterministic.
///
/// Failure semantics (the same contract the thread backend implements):
///  * Per-collective deadline (`timeout_seconds`): a rank blocked past it
///    aborts the group; every blocked rank throws vqmc::CommTimeoutError.
///  * Peer death — EOF or ECONNRESET on a peer connection — is folded at the
///    collective where the contribution is missing. Under
///    PeerDeathPolicy::Shrink the dead rank is removed exactly like a
///    departed thread (reductions skip it deterministically); under
///    PeerDeathPolicy::Abort the whole group aborts with CommTimeoutError —
///    the "continue at reduced batch vs abort" policy knob.
///  * A hung-but-connected peer (e.g. SIGSTOP) produces no EOF; the
///    collective deadline is the liveness check and the group aborts.
///  * `leave()` sends a LEAVE frame upstream: a graceful, deterministic
///    departure at a collective boundary (leaf ranks only — a leader's death
///    orphans its node, so leaders must run to completion or abort).
///  * Death of the root (or of any leader, for its node's members) cannot be
///    shrunk around: affected ranks throw CommTimeoutError; restart from the
///    TrainingSnapshot checkpoint covers it.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "parallel/communicator.hpp"
#include "parallel/wire_protocol.hpp"

namespace vqmc::parallel {

/// What to do when a peer process dies mid-run (EOF/reset on its
/// connection).
enum class PeerDeathPolicy {
  kShrink,  ///< fold the dead rank out and continue at reduced batch
  kAbort,   ///< abort the whole group (every rank throws CommTimeoutError)
};

/// Knobs shared by every rank of one socket group. Every rank must pass the
/// same values (the WELCOME frame carries the root's view so mismatches are
/// caught at rendezvous).
struct SocketGroupOptions {
  /// Deadline for each collective; 0 disables (wait forever). Same contract
  /// as GroupOptions::timeout_seconds on the thread backend.
  double timeout_seconds = 0;
  /// Deadline for the whole rendezvous (listen/connect/welcome handshake).
  double rendezvous_timeout_seconds = 30;
  /// Ranks per node for the hierarchical reduction tree; 0 = flat star
  /// (every rank connects directly to rank 0, fold order identical to the
  /// thread backend).
  int node_size = 0;
  /// Shrink-vs-abort policy for peer process death.
  PeerDeathPolicy on_peer_death = PeerDeathPolicy::kShrink;
};

/// One rank's endpoint of a socket-backed group. Construct via
/// connect_socket_group(); all Communicator methods follow the documented
/// collective contract.
class SocketCommunicator final : public Communicator {
 public:
  ~SocketCommunicator() override;

  using Communicator::allreduce_sum;  // keep the scalar overloads visible
  using Communicator::allreduce_max;

  [[nodiscard]] int rank() const override { return rank_; }
  [[nodiscard]] int size() const override { return world_; }

  void allreduce_sum(std::span<Real> data) override;
  void allreduce_max(std::span<Real> data) override;
  void broadcast(std::span<Real> data, int root) override;
  void barrier() override;

  [[nodiscard]] int live_count() const override;
  [[nodiscard]] bool is_alive(int r) const override;
  void leave() override;
  void interruptible_sleep(double seconds) override;

  /// Failed dial attempts during rendezvous (exponential backoff + jitter);
  /// exported so launch tooling and telemetry can report flaky bring-up.
  [[nodiscard]] long long connect_retries() const { return connect_retries_; }

  /// Ranks this endpoint has observed die un-gracefully (EOF/reset), in
  /// detection order. Leaders observe their members; the root observes
  /// every death that reaches a membership bitmap.
  [[nodiscard]] const std::vector<int>& observed_deaths() const {
    return observed_deaths_;
  }

 private:
  friend std::unique_ptr<SocketCommunicator> connect_socket_group(
      const std::string& endpoint, int rank, int world,
      const SocketGroupOptions& options);

  SocketCommunicator(int rank, int world, SocketGroupOptions options);

  /// A downstream connection: either one member rank, or (on the root) a
  /// whole node reached through its leader.
  struct Child {
    std::vector<int> covered;  ///< ranks behind this connection, ascending
    wire::Socket socket;
    bool gone = false;  ///< left, died, or folded out
  };

  enum class Op : std::uint64_t { kSum = 1, kMax = 2, kBcast = 3,
                                  kBarrier = 4 };

  void rendezvous(const std::string& endpoint);
  void round(Op op, std::span<Real> data, int bcast_root);
  /// Whether this rank's own `data` enters the fold of `op`.
  [[nodiscard]] bool contributes(Op op, int bcast_root) const;
  /// Fold this rank's contribution and every live child's CONTRIB, in
  /// ascending rank order, into the data.size() reals at `fold` (a wire
  /// buffer, so unaligned). Returns whether any payload was folded.
  bool collect_and_fold(Op op, std::span<const Real> data, int bcast_root,
                        unsigned char* fold);
  /// Write `result` (sealed or verified once) to every live child.
  void scatter_result(const wire::Frame& result);
  void handle_child_death(Child& child, const char* how);
  void abort_group(const std::string& reason);
  [[noreturn]] void throw_aborted();
  void mark_dead(int r);

  const int rank_;
  const int world_;
  const SocketGroupOptions options_;
  int node_size_ = 0;    ///< effective (0 in options -> world_)
  int leader_rank_ = 0;  ///< leader of this rank's node
  bool is_leader_ = false;

  wire::Socket upstream_;        ///< connection toward the root (leaf/leader)
  std::vector<Child> children_;  ///< fold order (ascending covered ranks)

  std::vector<char> alive_;
  std::uint64_t seq_ = 0;
  bool left_ = false;
  bool aborted_ = false;
  std::string abort_reason_;
  long long connect_retries_ = 0;
  std::vector<int> observed_deaths_;

  // Collective buffers, kept across rounds: a steady-state collective
  // allocates nothing of payload size.
  wire::Frame recv_;    ///< a child's CONTRIB, or the RESULT from upstream
  wire::Frame result_;  ///< the root's RESULT, the fold target
  std::vector<unsigned char> contrib_;  ///< CONTRIB sent upstream
};

/// Join (or, for rank 0, host) the socket group rendezvous at `endpoint`
/// (`unix:///path` or `tcp://host:port`) and return the connected endpoint.
/// Blocks until all `world` ranks have checked in or the rendezvous deadline
/// expires (vqmc::CommTimeoutError).
std::unique_ptr<SocketCommunicator> connect_socket_group(
    const std::string& endpoint, int rank, int world,
    const SocketGroupOptions& options = {});

/// Environment-spec rendezvous (the vqmc_launch child protocol): reads
///   VQMC_ENDPOINT  — rendezvous endpoint (required)
///   VQMC_RANK      — this rank (required)
///   VQMC_RANKS     — world size (required)
///   VQMC_NODE_SIZE — hierarchical node size (optional, default flat)
/// and connects with `options` (node_size overridden by the env when set).
/// Throws vqmc::Error when a required variable is missing or malformed.
std::unique_ptr<SocketCommunicator> connect_socket_group_from_env(
    SocketGroupOptions options = {});

/// Thread-hosted socket group: spawn `num_ranks` threads, each owning a
/// SocketCommunicator endpoint of one group over loopback sockets, and join
/// them. Same body/error contract as run_thread_group — this is what lets
/// the conformance suite (and TSan) drive the full wire protocol in one
/// process. `endpoint` defaults to a fresh Unix socket under the system
/// temp directory.
void run_socket_group(int num_ranks,
                      const std::function<void(Communicator&)>& body,
                      const SocketGroupOptions& options = {},
                      std::string endpoint = "");

/// Rethrow the most informative of a group's per-rank errors: non-timeout
/// failures (the root cause) win over the CommTimeoutErrors they trigger on
/// peer ranks. No-op when no error is set. Shared by both group runners.
void rethrow_group_errors(const std::vector<std::exception_ptr>& errors);

}  // namespace vqmc::parallel
