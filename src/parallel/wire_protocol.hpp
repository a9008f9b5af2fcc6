#pragma once

/// \file wire_protocol.hpp
/// \brief Framed, checksummed message transport for the socket communicator
/// (DESIGN.md §5h).
///
/// Every message on a rank-to-rank connection is one *frame*:
///
///   [u32 magic "VQW2"] [u32 type] [u64 seq] [u64 payload_bytes]
///   [payload ...] [u32 crc32c(header || payload)]
///
/// Frames are written and read atomically with poll()-enforced deadlines on
/// non-blocking file descriptors, so a dead or wedged peer can never block a
/// collective past its deadline — the timeout surfaces as the same typed
/// vqmc::CommTimeoutError the thread backend throws.  A checksum mismatch, a
/// torn frame, a foreign magic (including the "VQWP" frames of builds that
/// checksummed with FNV-1a) or a payload larger than the receiver's bound is
/// reported as corruption (vqmc::Error), never silently folded into a
/// reduction; an oversized claim is refused before anything is allocated.
///
/// Endpoints are textual specs:
///   * `unix:///path/to/socket`  — AF_UNIX stream socket (same host);
///   * `tcp://host:port`        — AF_INET stream socket (port 0 = ephemeral).
///
/// The connect side retries with exponential backoff plus deterministic
/// per-rank jitter until the rendezvous deadline, so ranks launched in any
/// order (or seconds apart) still find the listener.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "tensor/real.hpp"

namespace vqmc::parallel::wire {

/// Frame types (the `type` header field).
enum class FrameType : std::uint32_t {
  kHello = 1,    ///< rank -> root at rendezvous: [rank]
  kWelcome = 2,  ///< root -> rank at rendezvous: [world]
  kContrib = 3,  ///< rank -> root: [op][bcast_root][count][reals]
  kResult = 4,   ///< root -> rank: [world][alive bitmap][count][reals]
  kLeave = 5,    ///< rank -> root: graceful permanent departure
  kAbort = 6,    ///< either way: group aborted, reason in payload
  kStatus = 7,   ///< obs client -> server: status request, format in payload
  kMetrics = 8,  ///< obs client -> server: Prometheus-text metrics request
};

/// One decoded frame.  A Frame kept across calls reuses its payload
/// storage, so a steady stream of frames allocates nothing once the buffer
/// has grown to the largest of them.
struct Frame {
  FrameType type = FrameType::kContrib;
  std::uint64_t seq = 0;
  std::vector<unsigned char> payload;
  /// The trailer: CRC-32C of header || payload, as verified by recv_frame
  /// or computed by seal().  send_frame(Socket&, const Frame&, ...) writes
  /// it unchanged.
  std::uint32_t checksum = 0;
};

/// A connected (or listening) socket endpoint. Owns the fd.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int fd() const { return fd_; }
  void close();

 private:
  int fd_ = -1;
};

/// The unix socket file a listener bound (path, device and inode), and its
/// deleter, which removes the file if the path still names it.
struct BoundFile;
struct RemoveBoundFile {
  void operator()(BoundFile* file) const;
};

/// A bound, listening socket plus the spec peers should dial to reach it
/// (with the kernel-assigned port substituted for `tcp://host:0`).  A unix
/// listener removes the socket file it bound when it closes or is
/// destroyed, but only while the path still names that file: a later
/// listener that re-bound the path keeps its file.
struct Listener {
  Socket socket;
  std::string endpoint;
  std::unique_ptr<BoundFile, RemoveBoundFile> file;  ///< null for tcp

  /// Remove the bound socket file (see above) and close the socket.
  void close() {
    file.reset();
    socket.close();
  }
};

/// The port of the tcp endpoint `spec`, given as `text` (what follows its
/// last ':'): decimal digits only — no sign, space or trailing byte — with
/// a value in 0..65535. Throws vqmc::Error naming `spec` otherwise.
int parse_port(std::string_view text, const std::string& spec);

/// Bind and listen on `spec` (`unix://...` or `tcp://host:port`). For a unix
/// spec any stale socket file is unlinked first. Throws vqmc::Error on
/// failure.
Listener listen_on(const std::string& spec, int backlog = 64);

/// Dial `spec`, retrying with exponential backoff (base 2, starting at
/// `backoff_base_seconds`, capped at `backoff_max_seconds`) plus a
/// deterministic jitter derived from `jitter_seed`, until the connection
/// succeeds or `deadline_seconds` elapses. Returns the connected socket and
/// reports the number of failed attempts through `*attempts` (when non-null).
/// Throws vqmc::CommTimeoutError when the deadline expires.
Socket connect_to(const std::string& spec, double deadline_seconds,
                  std::uint64_t jitter_seed, long long* attempts = nullptr,
                  double backoff_base_seconds = 0.005,
                  double backoff_max_seconds = 0.25);

/// Accept one connection, waiting at most `deadline_seconds` (<= 0 waits
/// forever). Throws vqmc::CommTimeoutError on deadline expiry.
Socket accept_from(Socket& listener, double deadline_seconds);

/// Write one frame. `deadline_seconds` <= 0 waits forever. Returns false if
/// the peer is gone (EPIPE/ECONNRESET — the caller decides whether that is a
/// death to fold or an error); throws vqmc::CommTimeoutError when the
/// deadline expires with the frame only partially written.
bool send_frame(Socket& socket, FrameType type, std::uint64_t seq,
                const void* payload, std::size_t payload_bytes,
                double deadline_seconds);

/// Set `frame.checksum` for its current type, seq and payload.
void seal(Frame& frame);

/// Write `frame` with its stored checksum, computing nothing: a frame
/// sealed once (or received and verified once) goes to any number of peers
/// at the cost of the writes alone.  Same return and deadline contract as
/// the overload above.
bool send_frame(Socket& socket, const Frame& frame, double deadline_seconds);

/// Read one frame into `out`, reusing its payload storage. Returns false on
/// a clean or reset connection end (peer death) *at a frame boundary*;
/// throws vqmc::CommTimeoutError on deadline expiry and vqmc::Error on a
/// torn frame, bad magic, checksum mismatch, or a header claiming more than
/// `max_payload_bytes` — the largest payload the caller's exchange accepts,
/// checked before anything is allocated.
bool recv_frame(Socket& socket, Frame& out, double deadline_seconds,
                std::size_t max_payload_bytes);

/// Block until `socket` is readable (or in error/EOF state) for up to
/// `deadline_seconds` (<= 0 waits forever). Returns true if the socket woke
/// the poll, false on timeout. Does not consume any bytes.
bool poll_readable(const Socket& socket, double deadline_seconds);

/// Copy `count` Reals out of a payload at byte `offset`, checking that the
/// payload holds them (the collectives move spans of Real).
void decode_reals(const std::vector<unsigned char>& in, std::size_t offset,
                  Real* data, std::size_t count);

}  // namespace vqmc::parallel::wire
