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
/// Topology: a flat star rooted at rank 0. Every other rank sends its
/// contribution to the root, which folds rank 0's own and then every live
/// child's in ascending rank order — exactly the thread backend's fold, so
/// the two backends agree bit for bit — and scatters the result, plus the
/// membership bitmap, back to every child. The root doubles as the group's
/// sequencer: every survivor receives the *same* fold and the same
/// membership view, which is what makes shrink deterministic.
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
///  * `leave()` sends a LEAVE frame to the root: a graceful, deterministic
///    departure at a collective boundary. Every rank but the root may leave.
///  * Death of the root cannot be shrunk around: every other rank throws
///    CommTimeoutError; restart from the TrainingSnapshot checkpoint covers
///    it.

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

/// Knobs of one socket group's endpoint. Every rank should pass the same
/// values; the world size, the one value the ranks must agree on, is
/// checked at rendezvous (the WELCOME frame carries the root's).
struct SocketGroupOptions {
  /// Deadline for each collective; 0 disables (wait forever). Same contract
  /// as GroupOptions::timeout_seconds on the thread backend.
  double timeout_seconds = 0;
  /// Deadline for the whole rendezvous (listen/connect/welcome handshake).
  double rendezvous_timeout_seconds = 30;
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
  /// detection order. Only the root holds connections to the other ranks,
  /// so only the root observes deaths; every other rank learns of them
  /// through is_alive() (the RESULT's membership bitmap).
  [[nodiscard]] const std::vector<int>& observed_deaths() const {
    return observed_deaths_;
  }

 private:
  friend std::unique_ptr<SocketCommunicator> connect_socket_group(
      const std::string& endpoint, int rank, int world,
      const SocketGroupOptions& options);

  SocketCommunicator(int rank, int world, SocketGroupOptions options);

  /// The root's connection to one other rank.
  struct Child {
    int rank = 0;
    wire::Socket socket;
    bool gone = false;  ///< left, died, or folded out
  };

  enum class Op : std::uint64_t { kSum = 1, kMax = 2, kBcast = 3,
                                  kBarrier = 4 };

  void rendezvous(const std::string& endpoint);
  void round(Op op, std::span<Real> data, int bcast_root);
  /// Whether this rank's own `data` enters the fold of `op`.
  [[nodiscard]] bool contributes(Op op, int bcast_root) const;
  /// On the root: fold its own contribution and every live child's
  /// CONTRIB, in ascending rank order, into the data.size() reals at `fold`
  /// (a wire buffer, so unaligned). Returns whether any payload was folded.
  bool collect_and_fold(Op op, std::span<const Real> data, int bcast_root,
                        unsigned char* fold);
  /// Write `result` (sealed once) to every live child.
  void scatter_result(const wire::Frame& result);
  void handle_child_death(Child& child, const char* how);
  void abort_group(const std::string& reason);
  [[noreturn]] void throw_aborted();
  void mark_dead(int r);

  const int rank_;
  const int world_;
  const SocketGroupOptions options_;

  wire::Socket upstream_;        ///< connection to the root (non-root ranks)
  std::vector<Child> children_;  ///< on the root: ranks 1..world-1, in order

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
///   VQMC_ENDPOINT  — rendezvous endpoint
///   VQMC_RANK      — this rank
///   VQMC_RANKS     — world size
/// and connects with `options`. Throws vqmc::Error naming the variable,
/// before any socket is created, when one is missing, is not a whole
/// decimal int (`zero`, `2x` and the empty string are rejected), or is out
/// of range (VQMC_RANKS < 1, VQMC_RANK outside [0, VQMC_RANKS)).
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
