#include "parallel/socket_communicator.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <climits>
#include <cstdlib>
#include <cstring>
#include <thread>

#include <poll.h>
#include <unistd.h>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "rng/splitmix.hpp"
#include "telemetry/metrics_registry.hpp"

namespace vqmc::parallel {

namespace {

using wire::Frame;
using wire::FrameType;

constexpr std::uint64_t kNoBcastRoot = ~std::uint64_t(0);

/// Longest ABORT reason: abort_group clips to it, and every collective
/// receive accepts at least this much, since an ABORT may arrive in place
/// of the CONTRIB or RESULT it expects.
constexpr std::size_t kMaxAbortReason = 4096;
/// HELLO payload: [rank].
constexpr std::size_t kHelloBytes = sizeof(std::uint64_t);
/// WELCOME payload: [world].
constexpr std::size_t kWelcomeBytes = sizeof(std::uint64_t);
/// CONTRIB payload: [op][bcast_root][count][count reals]; the reals start
/// here.
constexpr std::size_t kContribHeader = 3 * sizeof(std::uint64_t);

/// RESULT payload: [world][alive byte per rank][count][count reals]; the
/// reals start here.
std::size_t result_reals_offset(int world) {
  return 2 * sizeof(std::uint64_t) + std::size_t(world);
}

/// Fixed little-endian host layout: all ranks of a group run the same
/// build, and the frame magic and checksum reject any cross-build mixing.
void store_u64(unsigned char* at, std::uint64_t value) {
  std::memcpy(at, &value, sizeof(value));
}

std::uint64_t get_u64(const std::vector<unsigned char>& in,
                      std::size_t& offset) {
  VQMC_REQUIRE(offset + sizeof(std::uint64_t) <= in.size(),
               "socket comm: frame payload truncated");
  std::uint64_t value = 0;
  std::memcpy(&value, in.data() + offset, sizeof(value));
  offset += sizeof(value);
  return value;
}

/// dst[i] += src[i] (kSum) or dst[i] = max(dst[i], src[i]) (kMax) over
/// `count` reals stored in wire buffers, which carry no alignment: the
/// loads and stores go through memcpy.  The fold folds straight out of the
/// receive buffer, in the caller's (ascending rank) order.
void fold_reals(bool take_max, unsigned char* dst, const unsigned char* src,
                std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    Real acc = 0, incoming = 0;
    std::memcpy(&acc, dst + i * sizeof(Real), sizeof(Real));
    std::memcpy(&incoming, src + i * sizeof(Real), sizeof(Real));
    acc = take_max ? std::max(acc, incoming) : acc + incoming;
    std::memcpy(dst + i * sizeof(Real), &acc, sizeof(Real));
  }
}

/// Environment variable `name`'s `text` as a decimal int in [lo, hi]:
/// an optional '-' and digits, and no other byte.
int env_int(const char* name, const char* text, int lo, int hi) {
  const char* end = text + std::strlen(text);
  int value = 0;
  const auto [stop, ec] = std::from_chars(text, end, value);
  VQMC_REQUIRE(ec == std::errc() && stop == end && value >= lo && value <= hi,
               std::string("socket comm: ") + name + "='" + text +
                   "' is not a decimal int in [" + std::to_string(lo) + ", " +
                   std::to_string(hi) + "]");
  return value;
}

}  // namespace

SocketCommunicator::SocketCommunicator(int rank, int world,
                                       SocketGroupOptions options)
    : rank_(rank), world_(world), options_(options),
      alive_(std::size_t(world), 1) {
  VQMC_REQUIRE(world_ >= 1, "socket comm: need at least one rank");
  VQMC_REQUIRE(rank_ >= 0 && rank_ < world_, "socket comm: rank out of range");
  VQMC_REQUIRE(options_.timeout_seconds >= 0,
               "socket comm: timeout must be >= 0");
}

SocketCommunicator::~SocketCommunicator() = default;

void SocketCommunicator::rendezvous(const std::string& endpoint) {
  if (world_ == 1) return;
  const double deadline = options_.rendezvous_timeout_seconds;

  if (rank_ == 0) {
    // Accept every other rank's HELLO [rank]; its connection becomes the
    // child at its place in the fold order.
    wire::Listener listener = wire::listen_on(endpoint);
    children_.resize(std::size_t(world_ - 1));
    for (int joined = 1; joined < world_; ++joined) {
      wire::Socket conn = wire::accept_from(listener.socket, deadline);
      Frame hello;
      VQMC_REQUIRE(wire::recv_frame(conn, hello, deadline, kHelloBytes) &&
                       hello.type == FrameType::kHello,
                   "socket comm: rendezvous peer hung up before HELLO");
      std::size_t offset = 0;
      const std::uint64_t peer = get_u64(hello.payload, offset);
      VQMC_REQUIRE(peer >= 1 && peer < std::uint64_t(world_),
                   "socket comm: HELLO with out-of-range rank");
      Child& child = children_[std::size_t(peer) - 1];
      VQMC_REQUIRE(!child.socket.valid(),
                   "socket comm: duplicate HELLO for rank " +
                       std::to_string(peer));
      child.rank = int(peer);
      child.socket = std::move(conn);
    }
    const std::uint64_t welcome = std::uint64_t(world_);
    for (Child& child : children_) {
      VQMC_REQUIRE(wire::send_frame(child.socket, FrameType::kWelcome, 0,
                                    &welcome, sizeof(welcome), deadline),
                   "socket comm: rank " + std::to_string(child.rank) +
                       " vanished during rendezvous");
    }
    return;
  }

  upstream_ = wire::connect_to(
      endpoint, deadline, rng::splitmix64_once(std::uint64_t(rank_) + 0x9e37),
      &connect_retries_);
  telemetry::metrics()
      .counter("comm.socket.connect_retries")
      .add(std::uint64_t(connect_retries_));
  const std::uint64_t hello = std::uint64_t(rank_);
  VQMC_REQUIRE(wire::send_frame(upstream_, FrameType::kHello, 0, &hello,
                                sizeof(hello), deadline),
               "socket comm: rendezvous listener hung up on HELLO");
  Frame welcome;
  if (!wire::recv_frame(upstream_, welcome, deadline, kWelcomeBytes) ||
      welcome.type != FrameType::kWelcome)
    throw CommTimeoutError(
        "socket comm: rendezvous ended before WELCOME (root died or group "
        "mismatch)");
  std::size_t offset = 0;
  VQMC_REQUIRE(get_u64(welcome.payload, offset) == std::uint64_t(world_),
               "socket comm: world size mismatch at rendezvous");
}

int SocketCommunicator::live_count() const {
  int live = 0;
  for (const char a : alive_) live += a ? 1 : 0;
  return live;
}

bool SocketCommunicator::is_alive(int r) const {
  return r >= 0 && r < world_ && alive_[std::size_t(r)] != 0;
}

void SocketCommunicator::mark_dead(int r) {
  if (r >= 0 && r < world_) alive_[std::size_t(r)] = 0;
}

void SocketCommunicator::abort_group(const std::string& reason) {
  if (aborted_) return;
  aborted_ = true;
  abort_reason_ = reason.substr(0, kMaxAbortReason);
  telemetry::metrics().counter("comm.socket.aborts").add();
  // Best-effort fan-out of the abort in both directions; a frame that cannot
  // be delivered within the grace deadline goes to a peer that is itself
  // dead or wedged — its own deadline machinery covers it.
  const double grace = 1.0;
  const auto try_send = [&](wire::Socket& socket) {
    if (!socket.valid()) return;
    try {
      wire::send_frame(socket, FrameType::kAbort, seq_, abort_reason_.data(),
                       abort_reason_.size(), grace);
    } catch (const CommTimeoutError&) {
    }
  };
  if (!left_) try_send(upstream_);
  for (Child& child : children_)
    if (!child.gone) try_send(child.socket);
}

void SocketCommunicator::throw_aborted() {
  throw CommTimeoutError("collective aborted: " + abort_reason_);
}

void SocketCommunicator::handle_child_death(Child& child, const char* how) {
  telemetry::metrics().counter("comm.socket.peer_deaths").add();
  observed_deaths_.push_back(child.rank);
  if (options_.on_peer_death == PeerDeathPolicy::kAbort) {
    abort_group("rank " + std::to_string(child.rank) + " died (" + how +
                ") and the group policy is abort");
    throw_aborted();
  }
  mark_dead(child.rank);
  child.gone = true;
  child.socket.close();
}

bool SocketCommunicator::contributes(Op op, int bcast_root) const {
  return op == Op::kSum || op == Op::kMax ||
         (op == Op::kBcast && rank_ == bcast_root);
}

bool SocketCommunicator::collect_and_fold(Op op, std::span<const Real> data,
                                          int bcast_root, unsigned char* fold) {
  const std::size_t fold_bytes = data.size() * sizeof(Real);
  // Rank 0's own contribution seeds the fold; the children follow in
  // ascending rank order.
  bool have_fold = contributes(op, bcast_root);
  if (have_fold && fold_bytes > 0) std::memcpy(fold, data.data(), fold_bytes);
  // The exact CONTRIB a child can send, or an ABORT in its place.
  const std::size_t max_payload =
      std::max(kContribHeader + fold_bytes, kMaxAbortReason);

  for (Child& child : children_) {
    if (child.gone) continue;
    bool alive_frame;
    try {
      alive_frame = wire::recv_frame(child.socket, recv_,
                                     options_.timeout_seconds, max_payload);
    } catch (const CommTimeoutError&) {
      // A connected-but-silent peer (hung, stopped, or deadlocked): the
      // deadline is the liveness check, and the whole group aborts exactly
      // like the thread backend's sense barrier does.
      abort_group("collective timed out after " +
                  std::to_string(options_.timeout_seconds) +
                  " s (a peer rank is hung or dead)");
      throw_aborted();
    }
    if (!alive_frame) {
      handle_child_death(child, "connection reset");
      continue;
    }
    const std::vector<unsigned char>& payload = recv_.payload;
    if (recv_.type == FrameType::kAbort) {
      abort_group(std::string(payload.begin(), payload.end()));
      throw_aborted();
    }
    if (recv_.type == FrameType::kLeave) {
      mark_dead(child.rank);
      child.gone = true;
      continue;
    }
    VQMC_REQUIRE(recv_.type == FrameType::kContrib,
                 "socket comm: unexpected frame type in collective");
    VQMC_REQUIRE(recv_.seq == seq_,
                 "socket comm: collective sequence mismatch (peer skipped or "
                 "repeated a collective)");
    std::size_t offset = 0;
    VQMC_REQUIRE(get_u64(payload, offset) == std::uint64_t(op),
                 "socket comm: collective op mismatch across ranks");
    const std::uint64_t frame_root = get_u64(payload, offset);
    if (op == Op::kBcast)
      VQMC_REQUIRE(frame_root == std::uint64_t(bcast_root),
                   "socket comm: broadcast root mismatch across ranks");
    const std::uint64_t count = get_u64(payload, offset);
    VQMC_REQUIRE(count == 0 || count == data.size(),
                 "socket comm: collective payload size mismatch");
    VQMC_REQUIRE(payload.size() == offset + count * sizeof(Real),
                 "socket comm: CONTRIB length does not match its count");
    if (count > 0) {
      const unsigned char* incoming = payload.data() + offset;
      if (op == Op::kBcast) {
        VQMC_REQUIRE(!have_fold,
                     "socket comm: two broadcast payloads in one round");
        std::memcpy(fold, incoming, fold_bytes);
      } else if (!have_fold) {
        std::memcpy(fold, incoming, fold_bytes);
      } else {
        fold_reals(op == Op::kMax, fold, incoming, data.size());
      }
      have_fold = true;
    }
  }
  return have_fold;
}

void SocketCommunicator::scatter_result(const Frame& result) {
  for (Child& child : children_) {
    if (child.gone) continue;
    bool delivered;
    try {
      delivered =
          wire::send_frame(child.socket, result, options_.timeout_seconds);
    } catch (const CommTimeoutError&) {
      abort_group("collective timed out delivering a result (a peer rank is "
                  "wedged)");
      throw_aborted();
    }
    if (!delivered) handle_child_death(child, "reset during result scatter");
  }
}

void SocketCommunicator::round(Op op, std::span<Real> data, int bcast_root) {
  if (aborted_) throw_aborted();
  VQMC_REQUIRE(!left_, "socket comm: collective after leave()");
  if (op == Op::kBcast) {
    VQMC_REQUIRE(bcast_root >= 0 && bcast_root < world_,
                 "broadcast: root out of range");
    VQMC_REQUIRE(is_alive(bcast_root),
                 "broadcast: root rank has left the group");
  }
  Timer wait_timer;
  telemetry::metrics().counter("comm.socket.collectives").add();

  if (world_ == 1) {
    ++seq_;
    return;
  }

  const std::size_t data_bytes = data.size() * sizeof(Real);
  const std::size_t reals_at = result_reals_offset(world_);
  if (rank_ == 0) {
    // The root folds every contribution straight into the RESULT payload,
    // then checksums it once for all of its children.
    std::vector<unsigned char>& result = result_.payload;
    result.resize(reals_at + data_bytes);
    const bool have_fold =
        collect_and_fold(op, data, bcast_root, result.data() + reals_at);
    if (op != Op::kBarrier) {
      VQMC_REQUIRE(have_fold, "socket comm: collective folded zero payloads");
      if (data_bytes > 0)
        std::memcpy(data.data(), result.data() + reals_at, data_bytes);
    }
    store_u64(result.data(), std::uint64_t(world_));
    std::memcpy(result.data() + sizeof(std::uint64_t), alive_.data(),
                alive_.size());
    store_u64(result.data() + reals_at - sizeof(std::uint64_t),
              op == Op::kBarrier ? 0 : data.size());
    result_.type = FrameType::kResult;
    result_.seq = seq_;
    wire::seal(result_);
    scatter_result(result_);
  } else {
    // CONTRIB to the root: [op][bcast_root][count][reals].
    const std::size_t sent_count =
        contributes(op, bcast_root) ? data.size() : 0;
    contrib_.resize(kContribHeader + sent_count * sizeof(Real));
    store_u64(contrib_.data(), std::uint64_t(op));
    store_u64(contrib_.data() + sizeof(std::uint64_t),
              op == Op::kBcast ? std::uint64_t(bcast_root) : kNoBcastRoot);
    store_u64(contrib_.data() + 2 * sizeof(std::uint64_t), sent_count);
    if (sent_count > 0)
      std::memcpy(contrib_.data() + kContribHeader, data.data(), data_bytes);
    bool sent;
    try {
      sent = wire::send_frame(upstream_, FrameType::kContrib, seq_,
                              contrib_.data(), contrib_.size(),
                              options_.timeout_seconds);
    } catch (const CommTimeoutError&) {
      abort_group("collective timed out sending a contribution (the root "
                  "is wedged)");
      throw_aborted();
    }
    if (!sent) {
      abort_group("the root (rank 0) died; the group cannot continue");
      throw_aborted();
    }

    // Wait for the folded RESULT. The root's own deadline machinery fires
    // within timeout_seconds, so give its abort time to arrive before this
    // endpoint races it with a local timeout.
    const double result_deadline =
        options_.timeout_seconds > 0 ? 2 * options_.timeout_seconds + 0.5 : 0;
    bool got;
    try {
      got = wire::recv_frame(upstream_, recv_, result_deadline,
                             std::max(reals_at + data_bytes, kMaxAbortReason));
    } catch (const CommTimeoutError&) {
      abort_group("collective timed out after " +
                  std::to_string(options_.timeout_seconds) +
                  " s (a peer rank is hung or dead)");
      throw_aborted();
    }
    if (!got) {
      abort_group("the root (rank 0) died; the group cannot continue");
      throw_aborted();
    }
    const std::vector<unsigned char>& result = recv_.payload;
    if (recv_.type == FrameType::kAbort) {
      abort_group(std::string(result.begin(), result.end()));
      throw_aborted();
    }
    VQMC_REQUIRE(recv_.type == FrameType::kResult,
                 "socket comm: unexpected frame type while awaiting result");
    VQMC_REQUIRE(recv_.seq == seq_, "socket comm: result sequence mismatch");
    std::size_t offset = 0;
    VQMC_REQUIRE(get_u64(result, offset) == std::uint64_t(world_),
                 "socket comm: result world size mismatch");
    VQMC_REQUIRE(offset + std::size_t(world_) <= result.size(),
                 "socket comm: result membership bitmap truncated");
    for (int r = 0; r < world_; ++r)
      if (result[offset + std::size_t(r)] == 0) mark_dead(r);
    offset += std::size_t(world_);
    const std::uint64_t count = get_u64(result, offset);
    if (op != Op::kBarrier) {
      VQMC_REQUIRE(count == data.size(),
                   "socket comm: result payload size mismatch");
      wire::decode_reals(result, offset, data.data(), data.size());
    }
  }

  ++seq_;
  telemetry::metrics()
      .histogram("comm.socket.collective_seconds")
      .observe(wait_timer.seconds());
}

void SocketCommunicator::allreduce_sum(std::span<Real> data) {
  round(Op::kSum, data, -1);
}

void SocketCommunicator::allreduce_max(std::span<Real> data) {
  round(Op::kMax, data, -1);
}

void SocketCommunicator::broadcast(std::span<Real> data, int root) {
  round(Op::kBcast, data, root);
}

void SocketCommunicator::barrier() {
  round(Op::kBarrier, std::span<Real>(), -1);
}

void SocketCommunicator::leave() {
  if (left_ || aborted_) return;
  if (world_ == 1) {
    left_ = true;
    mark_dead(rank_);
    return;
  }
  VQMC_REQUIRE(rank_ != 0,
               "socket comm: the root cannot leave() — the group's sequencer "
               "would be orphaned (complete the run or abort instead)");
  try {
    wire::send_frame(upstream_, FrameType::kLeave, seq_, nullptr, 0,
                     options_.timeout_seconds > 0 ? options_.timeout_seconds
                                                  : 5.0);
  } catch (const CommTimeoutError&) {
    // The root is wedged; closing the connection below reports this rank
    // as dead instead of departed — same shrink outcome for the survivors.
  }
  left_ = true;
  mark_dead(rank_);
  upstream_.close();
}

void SocketCommunicator::interruptible_sleep(double seconds) {
  if (seconds <= 0 || aborted_) return;
  if (world_ == 1 || left_) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    return;
  }
  if (rank_ != 0) {
    // A non-root rank has no outstanding collective while it sleeps, so
    // readable data from the root can only be an ABORT (or the EOF of a dead
    // root): wake up early and let the next collective observe it.
    wire::poll_readable(upstream_, seconds);
    return;
  }
  // The root may legitimately receive contributions from children that are
  // already ahead, so it only watches for hangups (peer close) — the
  // signature of the group dissolving around a sleeping root.
  std::vector<pollfd> fds;
  for (const Child& child : children_)
    if (!child.gone) fds.push_back(pollfd{child.socket.fd(), POLLRDHUP, 0});
  if (fds.empty()) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    return;
  }
  ::poll(fds.data(), nfds_t(fds.size()), int(seconds * 1000) + 1);
}

std::unique_ptr<SocketCommunicator> connect_socket_group(
    const std::string& endpoint, int rank, int world,
    const SocketGroupOptions& options) {
  std::unique_ptr<SocketCommunicator> comm(
      new SocketCommunicator(rank, world, options));
  comm->rendezvous(endpoint);
  return comm;
}

std::unique_ptr<SocketCommunicator> connect_socket_group_from_env(
    SocketGroupOptions options) {
  const char* endpoint = std::getenv("VQMC_ENDPOINT");
  const char* rank = std::getenv("VQMC_RANK");
  const char* world = std::getenv("VQMC_RANKS");
  VQMC_REQUIRE(endpoint && rank && world,
               "socket comm: VQMC_ENDPOINT, VQMC_RANK and VQMC_RANKS must "
               "all be set (use vqmc_launch)");
  // Checked before any socket exists: a mistyped rank read as 0 would bind
  // the rendezvous path as a second root.
  const int world_size = env_int("VQMC_RANKS", world, 1, INT_MAX);
  const int rank_id = env_int("VQMC_RANK", rank, 0, world_size - 1);
  return connect_socket_group(endpoint, rank_id, world_size, options);
}

void rethrow_group_errors(const std::vector<std::exception_ptr>& errors) {
  std::exception_ptr first_timeout;
  for (const std::exception_ptr& err : errors) {
    if (!err) continue;
    try {
      std::rethrow_exception(err);
    } catch (const CommTimeoutError&) {
      if (!first_timeout) first_timeout = err;
    } catch (...) {
      std::rethrow_exception(err);
    }
  }
  if (first_timeout) std::rethrow_exception(first_timeout);
}

void run_socket_group(int num_ranks,
                      const std::function<void(Communicator&)>& body,
                      const SocketGroupOptions& options,
                      std::string endpoint) {
  VQMC_REQUIRE(num_ranks >= 1, "socket group: need at least one rank");
  if (endpoint.empty()) {
    // Fresh per-group unix socket path: pid + a process-wide counter keeps
    // concurrent groups (and concurrent test binaries) apart.
    static std::atomic<unsigned> group_counter{0};
    const char* tmpdir = std::getenv("TMPDIR");
    endpoint = std::string("unix://") + (tmpdir ? tmpdir : "/tmp") +
               "/vqmc_group_" + std::to_string(::getpid()) + "_" +
               std::to_string(group_counter.fetch_add(1)) + ".sock";
  }
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors{std::size_t(num_ranks)};
  threads.reserve(std::size_t(num_ranks));
  for (int r = 0; r < num_ranks; ++r) {
    threads.emplace_back([&, r] {
      try {
        const std::unique_ptr<SocketCommunicator> comm =
            connect_socket_group(endpoint, r, num_ranks, options);
        body(*comm);
      } catch (...) {
        errors[std::size_t(r)] = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  rethrow_group_errors(errors);
}

}  // namespace vqmc::parallel
