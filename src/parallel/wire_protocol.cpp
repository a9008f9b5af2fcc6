#include "parallel/wire_protocol.hpp"

#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstring>
#include <thread>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/error.hpp"
#include "rng/splitmix.hpp"
#include "tensor/kernels.hpp"

namespace vqmc::parallel::wire {

namespace {

constexpr std::uint32_t kMagic = 0x32575156u;  // "VQW2"

struct FrameHeader {
  std::uint32_t magic = kMagic;
  std::uint32_t type = 0;
  std::uint64_t seq = 0;
  std::uint64_t payload_bytes = 0;
};

FrameHeader make_header(FrameType type, std::uint64_t seq,
                        std::size_t payload_bytes) {
  FrameHeader header;
  header.type = std::uint32_t(type);
  header.seq = seq;
  header.payload_bytes = payload_bytes;
  return header;
}

/// The trailer: one CRC-32C over header || payload, so a frame delivered
/// against the wrong sequence or with flipped payload bits is rejected
/// before any fold.
std::uint32_t frame_checksum(const FrameHeader& header, const void* payload,
                             std::size_t payload_bytes) {
  return crc32c(crc32c(0, &header, sizeof(header)), payload, payload_bytes);
}

double monotonic_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  VQMC_REQUIRE(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
               "wire: cannot set O_NONBLOCK");
}

}  // namespace

int parse_port(std::string_view text, const std::string& spec) {
  unsigned value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  VQMC_REQUIRE(!text.empty() && error == std::errc() && stop == end &&
                   value <= 65535,
               "wire: bad port '" + std::string(text) + "' in endpoint '" +
                   spec + "' (expected decimal digits, 0..65535)");
  return int(value);
}

namespace {

/// Parse `spec` into either a unix path or a host/port pair.
struct ParsedSpec {
  bool is_unix = false;
  std::string path;  // unix
  std::string host;  // tcp
  int port = 0;      // tcp
};

ParsedSpec parse_spec(const std::string& spec) {
  ParsedSpec parsed;
  if (spec.rfind("unix://", 0) == 0) {
    parsed.is_unix = true;
    parsed.path = spec.substr(7);
    VQMC_REQUIRE(!parsed.path.empty(), "wire: empty unix socket path in '" +
                                           spec + "'");
    VQMC_REQUIRE(parsed.path.size() < sizeof(sockaddr_un{}.sun_path),
                 "wire: unix socket path too long: '" + parsed.path + "'");
    return parsed;
  }
  if (spec.rfind("tcp://", 0) == 0) {
    const std::string rest = spec.substr(6);
    const std::size_t colon = rest.rfind(':');
    VQMC_REQUIRE(colon != std::string::npos && colon > 0,
                 "wire: expected tcp://host:port, got '" + spec + "'");
    parsed.host = rest.substr(0, colon);
    parsed.port = parse_port(std::string_view(rest).substr(colon + 1), spec);
    return parsed;
  }
  throw Error("wire: endpoint '" + spec +
              "' must start with unix:// or tcp://");
}

sockaddr_in tcp_address(const ParsedSpec& spec) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(std::uint16_t(spec.port));
  VQMC_REQUIRE(::inet_pton(AF_INET, spec.host.c_str(), &addr.sin_addr) == 1,
               "wire: cannot parse IPv4 address '" + spec.host +
                   "' (use a numeric address, e.g. 127.0.0.1)");
  return addr;
}

sockaddr_un unix_address(const ParsedSpec& spec) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, spec.path.c_str(), spec.path.size() + 1);
  return addr;
}

/// poll() one fd for `events`, honoring the absolute deadline. Returns true
/// when the fd is ready (or hung up), false when the deadline expired.
bool poll_fd(int fd, short events, double deadline_at) {
  for (;;) {
    int timeout_ms = -1;
    if (deadline_at > 0) {
      const double left = deadline_at - monotonic_seconds();
      if (left <= 0) return false;
      timeout_ms = int(left * 1000) + 1;
    }
    pollfd pfd{fd, events, 0};
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready > 0) return true;
    if (ready == 0) {
      if (deadline_at <= 0) continue;  // spurious zero without a deadline
      return false;
    }
    if (errno == EINTR) continue;
    throw Error("wire: poll failed: " + std::string(std::strerror(errno)));
  }
}

double deadline_at_from(double deadline_seconds) {
  return deadline_seconds > 0 ? monotonic_seconds() + deadline_seconds : 0;
}

/// Write exactly `bytes`; returns false on EPIPE/ECONNRESET, throws
/// CommTimeoutError past the deadline.
bool send_all(int fd, const void* data, std::size_t bytes,
              double deadline_at) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::size_t sent = 0;
  while (sent < bytes) {
    // Wait for writability up front so the deadline also holds for fds that
    // were never switched to O_NONBLOCK (e.g. adopted socketpairs).
    if (!poll_fd(fd, POLLOUT, deadline_at))
      throw CommTimeoutError("wire: send deadline expired (peer not draining)");
    const ::ssize_t w =
        ::send(fd, p + sent, bytes - sent, MSG_NOSIGNAL);
    if (w > 0) {
      sent += std::size_t(w);
      continue;
    }
    if (w < 0 && (errno == EPIPE || errno == ECONNRESET)) return false;
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!poll_fd(fd, POLLOUT, deadline_at))
        throw CommTimeoutError(
            "wire: send deadline expired (peer not draining)");
      continue;
    }
    return false;  // any other hard error counts as a dead peer
  }
  return true;
}

/// Read exactly `bytes`. Returns the number read; a short return means the
/// peer closed (EOF/reset) mid-read. Throws CommTimeoutError past the
/// deadline.
std::size_t recv_all(int fd, void* data, std::size_t bytes,
                     double deadline_at) {
  auto* p = static_cast<unsigned char*>(data);
  std::size_t got = 0;
  while (got < bytes) {
    // As in send_all: poll first so deadlines hold even on blocking fds.
    if (!poll_fd(fd, POLLIN, deadline_at))
      throw CommTimeoutError("wire: recv deadline expired (peer silent)");
    const ::ssize_t r = ::recv(fd, p + got, bytes - got, 0);
    if (r > 0) {
      got += std::size_t(r);
      continue;
    }
    if (r == 0) return got;  // EOF
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (!poll_fd(fd, POLLIN, deadline_at))
        throw CommTimeoutError("wire: recv deadline expired (peer silent)");
      continue;
    }
    if (errno == ECONNRESET) return got;
    throw Error("wire: recv failed: " + std::string(std::strerror(errno)));
  }
  return got;
}

}  // namespace

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

struct BoundFile {
  std::string path;
  std::uint64_t dev = 0;
  std::uint64_t ino = 0;
};

void RemoveBoundFile::operator()(BoundFile* file) const {
  struct stat st {};
  if (::stat(file->path.c_str(), &st) == 0 &&
      std::uint64_t(st.st_dev) == file->dev &&
      std::uint64_t(st.st_ino) == file->ino)
    ::unlink(file->path.c_str());
  delete file;
}

Listener listen_on(const std::string& spec, int backlog) {
  const ParsedSpec parsed = parse_spec(spec);
  const int fd = ::socket(parsed.is_unix ? AF_UNIX : AF_INET, SOCK_STREAM, 0);
  VQMC_REQUIRE(fd >= 0, "wire: cannot create socket for '" + spec + "'");
  // Owned from here on: a failure below closes the fd and removes the file.
  Listener listener{Socket(fd), spec, nullptr};

  if (parsed.is_unix) {
    ::unlink(parsed.path.c_str());  // stale socket file from a dead run
    const sockaddr_un addr = unix_address(parsed);
    VQMC_REQUIRE(::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)) == 0,
                 "wire: cannot bind '" + spec +
                     "': " + std::strerror(errno));
    struct stat st {};
    if (::stat(parsed.path.c_str(), &st) == 0)
      listener.file.reset(new BoundFile{parsed.path, std::uint64_t(st.st_dev),
                                        std::uint64_t(st.st_ino)});
  } else {
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    const sockaddr_in addr = tcp_address(parsed);
    VQMC_REQUIRE(::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)) == 0,
                 "wire: cannot bind '" + spec +
                     "': " + std::strerror(errno));
  }
  VQMC_REQUIRE(::listen(fd, backlog) == 0,
               "wire: cannot listen on '" + spec + "'");
  set_nonblocking(fd);

  if (!parsed.is_unix && parsed.port == 0) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    VQMC_REQUIRE(::getsockname(fd, reinterpret_cast<sockaddr*>(&bound),
                               &len) == 0,
                 "wire: getsockname failed for '" + spec + "'");
    listener.endpoint = "tcp://" + parsed.host + ":" +
                        std::to_string(ntohs(bound.sin_port));
  }
  return listener;
}

Socket connect_to(const std::string& spec, double deadline_seconds,
                  std::uint64_t jitter_seed, long long* attempts,
                  double backoff_base_seconds, double backoff_max_seconds) {
  const ParsedSpec parsed = parse_spec(spec);
  const double deadline_at = deadline_at_from(deadline_seconds);
  double backoff = backoff_base_seconds;
  std::uint64_t jitter_state = jitter_seed;
  long long tries = 0;
  for (;;) {
    const int fd =
        ::socket(parsed.is_unix ? AF_UNIX : AF_INET, SOCK_STREAM, 0);
    VQMC_REQUIRE(fd >= 0, "wire: cannot create socket for '" + spec + "'");
    Socket socket(fd);
    int rc;
    if (parsed.is_unix) {
      const sockaddr_un addr = unix_address(parsed);
      rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr));
    } else {
      const sockaddr_in addr = tcp_address(parsed);
      rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr));
    }
    if (rc == 0) {
      if (!parsed.is_unix) {
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      }
      set_nonblocking(fd);
      if (attempts) *attempts = tries;
      return socket;
    }
    ++tries;
    socket.close();
    if (deadline_at > 0 && monotonic_seconds() >= deadline_at)
      throw CommTimeoutError("wire: rendezvous with '" + spec +
                             "' timed out after " + std::to_string(tries) +
                             " attempt(s): " + std::strerror(errno));
    // Exponential backoff with deterministic jitter in [0, backoff/2): many
    // ranks dialing the same just-started listener spread out instead of
    // stampeding in lockstep.
    jitter_state = rng::splitmix64_once(jitter_state);
    const double jitter =
        backoff * 0.5 * (double(jitter_state >> 11) / double(1ull << 53));
    double sleep_for = backoff + jitter;
    if (deadline_at > 0)
      sleep_for = std::min(sleep_for, deadline_at - monotonic_seconds());
    if (sleep_for > 0)
      std::this_thread::sleep_for(std::chrono::duration<double>(sleep_for));
    backoff = std::min(backoff * 2, backoff_max_seconds);
  }
}

Socket accept_from(Socket& listener, double deadline_seconds) {
  const double deadline_at = deadline_at_from(deadline_seconds);
  for (;;) {
    const int fd = ::accept(listener.fd(), nullptr, nullptr);
    if (fd >= 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      set_nonblocking(fd);
      return Socket(fd);
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (!poll_fd(listener.fd(), POLLIN, deadline_at))
        throw CommTimeoutError(
            "wire: accept deadline expired (a rank never connected)");
      continue;
    }
    throw Error("wire: accept failed: " + std::string(std::strerror(errno)));
  }
}

namespace {

/// Write header, payload and trailer; false when the peer is gone.
bool write_frame(Socket& socket, const FrameHeader& header,
                 const void* payload, std::size_t payload_bytes,
                 std::uint32_t checksum, double deadline_seconds) {
  const double deadline_at = deadline_at_from(deadline_seconds);
  return send_all(socket.fd(), &header, sizeof(header), deadline_at) &&
         send_all(socket.fd(), payload, payload_bytes, deadline_at) &&
         send_all(socket.fd(), &checksum, sizeof(checksum), deadline_at);
}

}  // namespace

bool send_frame(Socket& socket, FrameType type, std::uint64_t seq,
                const void* payload, std::size_t payload_bytes,
                double deadline_seconds) {
  const FrameHeader header = make_header(type, seq, payload_bytes);
  return write_frame(socket, header, payload, payload_bytes,
                     frame_checksum(header, payload, payload_bytes),
                     deadline_seconds);
}

void seal(Frame& frame) {
  frame.checksum =
      frame_checksum(make_header(frame.type, frame.seq, frame.payload.size()),
                     frame.payload.data(), frame.payload.size());
}

bool send_frame(Socket& socket, const Frame& frame, double deadline_seconds) {
  return write_frame(socket,
                     make_header(frame.type, frame.seq, frame.payload.size()),
                     frame.payload.data(), frame.payload.size(),
                     frame.checksum, deadline_seconds);
}

bool recv_frame(Socket& socket, Frame& out, double deadline_seconds,
                std::size_t max_payload_bytes) {
  const double deadline_at = deadline_at_from(deadline_seconds);
  FrameHeader header;
  const std::size_t header_got =
      recv_all(socket.fd(), &header, sizeof(header), deadline_at);
  if (header_got == 0) return false;  // clean EOF at a frame boundary
  VQMC_REQUIRE(header_got == sizeof(header),
               "wire: connection closed inside a frame header");
  VQMC_REQUIRE(header.magic == kMagic,
               "wire: bad frame magic (corrupt stream, non-vqmc peer, or a "
               "peer built with another frame format)");
  if (header.payload_bytes > max_payload_bytes)
    throw Error("wire: frame header claims " +
                std::to_string(header.payload_bytes) +
                " payload bytes, more than the " +
                std::to_string(max_payload_bytes) +
                " this exchange accepts (corrupt stream or hostile peer)");
  out.type = FrameType(header.type);
  out.seq = header.seq;
  out.payload.resize(std::size_t(header.payload_bytes));
  const std::size_t got = recv_all(socket.fd(), out.payload.data(),
                                   out.payload.size(), deadline_at);
  VQMC_REQUIRE(got == out.payload.size(),
               "wire: connection closed inside a frame payload");
  const std::size_t trailer_got = recv_all(
      socket.fd(), &out.checksum, sizeof(out.checksum), deadline_at);
  VQMC_REQUIRE(trailer_got == sizeof(out.checksum),
               "wire: connection closed inside a frame trailer");
  VQMC_REQUIRE(out.checksum == frame_checksum(header, out.payload.data(),
                                              out.payload.size()),
               "wire: frame checksum mismatch (corrupt stream)");
  return true;
}

bool poll_readable(const Socket& socket, double deadline_seconds) {
  return poll_fd(socket.fd(), POLLIN, deadline_at_from(deadline_seconds));
}

void decode_reals(const std::vector<unsigned char>& in, std::size_t offset,
                  Real* data, std::size_t count) {
  VQMC_REQUIRE(offset + count * sizeof(Real) <= in.size(),
               "wire: payload shorter than the expected Real span");
  if (count > 0) std::memcpy(data, in.data() + offset, count * sizeof(Real));
}

}  // namespace vqmc::parallel::wire
