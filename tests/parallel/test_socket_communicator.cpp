// Tests for the socket-backed multi-process communicator: wire protocol
// framing, rendezvous, the flat star's collectives and their bitwise match
// with the thread backend, graceful leave, real process death (fork +
// SIGKILL) and the shrink-vs-abort policy.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "parallel/process_faults.hpp"
#include "parallel/socket_communicator.hpp"
#include "parallel/thread_communicator.hpp"
#include "parallel/wire_protocol.hpp"

namespace vqmc::parallel {
namespace {

std::string fresh_unix_endpoint(const char* tag) {
  static std::atomic<unsigned> counter{0};
  const char* tmpdir = std::getenv("TMPDIR");
  return std::string("unix://") + (tmpdir ? tmpdir : "/tmp") + "/vqmc_test_" +
         tag + "_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

// ---------------------------------------------------------------------------
// Wire protocol

/// Payload bound for the wire tests' small frames.
constexpr std::size_t kTestMaxPayload = 1024;

/// Write raw bytes into a socket (hand-built or mutated frames).
void send_raw(const wire::Socket& socket,
              const std::vector<unsigned char>& raw) {
  ASSERT_EQ(::send(socket.fd(), raw.data(), raw.size(), 0),
            ssize_t(raw.size()));
}

/// A frame header as the wire lays it out: magic, type, seq, payload bytes.
std::vector<unsigned char> raw_header(std::uint32_t magic, wire::FrameType type,
                                      std::uint64_t seq,
                                      std::uint64_t payload_bytes) {
  std::vector<unsigned char> raw(24);
  const auto type_word = std::uint32_t(type);
  std::memcpy(raw.data(), &magic, 4);
  std::memcpy(raw.data() + 4, &type_word, 4);
  std::memcpy(raw.data() + 8, &seq, 8);
  std::memcpy(raw.data() + 16, &payload_bytes, 8);
  return raw;
}

constexpr std::uint32_t kFrameMagic = 0x32575156u;  // "VQW2" little-endian

TEST(WireProtocol, FrameRoundTripOverSocketPair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  wire::Socket a(fds[0]);
  wire::Socket b(fds[1]);

  const std::vector<Real> payload = {1.5, -2.25, 3.0e17, 0.0};
  std::vector<unsigned char> bytes(payload.size() * sizeof(Real));
  std::memcpy(bytes.data(), payload.data(), bytes.size());
  ASSERT_TRUE(wire::send_frame(a, wire::FrameType::kContrib, 42, bytes.data(),
                               bytes.size(), 5.0));

  wire::Frame frame;
  ASSERT_TRUE(wire::recv_frame(b, frame, 5.0, kTestMaxPayload));
  EXPECT_EQ(frame.type, wire::FrameType::kContrib);
  EXPECT_EQ(frame.seq, 42u);
  std::vector<Real> decoded(payload.size());
  std::size_t offset = 0;
  wire::decode_reals(frame.payload, offset, decoded.data(), decoded.size());
  EXPECT_EQ(decoded, payload);
}

TEST(WireProtocol, EofReportsPeerDeathNotError) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  wire::Socket a(fds[0]);
  wire::Socket b(fds[1]);
  a.close();
  wire::Frame frame;
  EXPECT_FALSE(wire::recv_frame(b, frame, 5.0, kTestMaxPayload));
}

TEST(WireProtocol, RecvDeadlineThrowsCommTimeout) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  wire::Socket a(fds[0]);
  wire::Socket b(fds[1]);
  wire::Frame frame;
  EXPECT_THROW((void)wire::recv_frame(b, frame, 0.05, kTestMaxPayload),
               CommTimeoutError);
}

TEST(WireProtocol, CorruptChecksumIsAProtocolError) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  wire::Socket a(fds[0]);
  wire::Socket b(fds[1]);
  const double payload = 7.0;
  ASSERT_TRUE(wire::send_frame(a, wire::FrameType::kContrib, 0, &payload,
                               sizeof(payload), 5.0));
  // Flip one payload byte in flight by re-reading raw and rewriting: simpler
  // here — send a raw garbage frame directly through the fd.
  a.close();
  // Read the intact frame first to prove the channel works, then check that
  // garbage fails loudly rather than decoding to nonsense.
  wire::Frame frame;
  ASSERT_TRUE(wire::recv_frame(b, frame, 5.0, kTestMaxPayload));
  EXPECT_EQ(frame.payload.size(), sizeof(payload));

  int fds2[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds2), 0);
  wire::Socket c(fds2[0]);
  wire::Socket d(fds2[1]);
  // Valid header for an 8-byte payload, then garbage payload + checksum.
  std::vector<unsigned char> raw;
  const auto put32 = [&raw](std::uint32_t v) {
    raw.insert(raw.end(), reinterpret_cast<unsigned char*>(&v),
               reinterpret_cast<unsigned char*>(&v) + 4);
  };
  const auto put64 = [&raw](std::uint64_t v) {
    raw.insert(raw.end(), reinterpret_cast<unsigned char*>(&v),
               reinterpret_cast<unsigned char*>(&v) + 8);
  };
  put32(0x32575156u);  // "VQW2" little-endian
  put32(std::uint32_t(wire::FrameType::kContrib));
  put64(0);
  put64(8);
  for (int i = 0; i < 16; ++i) raw.push_back(0xAB);  // payload + bad checksum
  ASSERT_EQ(::send(c.fd(), raw.data(), raw.size(), 0), ssize_t(raw.size()));
  wire::Frame bad;
  EXPECT_THROW((void)wire::recv_frame(d, bad, 5.0, kTestMaxPayload), Error);
}

TEST(WireProtocol, EveryOneBitFlipOfAFrameIsATypedError) {
  // Capture one small frame's wire image: 24-byte header, 8-byte payload,
  // 4-byte CRC-32C trailer.
  std::vector<unsigned char> image;
  {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    wire::Socket a(fds[0]);
    wire::Socket b(fds[1]);
    const double payload = -3.75;
    ASSERT_TRUE(wire::send_frame(a, wire::FrameType::kResult, 9, &payload,
                                 sizeof(payload), 5.0));
    image.resize(24 + 8 + 4);
    ASSERT_EQ(::recv(b.fd(), image.data(), image.size(), MSG_WAITALL),
              ssize_t(image.size()));
  }
  constexpr std::size_t kLengthField = 16;  // header bytes 16..23
  for (std::size_t offset = 0; offset < image.size(); ++offset) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<unsigned char> mutated = image;
      mutated[offset] =
          static_cast<unsigned char>(mutated[offset] ^ (1u << bit));
      int fds[2];
      ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
      wire::Socket a(fds[0]);
      wire::Socket b(fds[1]);
      send_raw(a, mutated);
      a.close();  // a length that outruns the bytes ends in a torn frame
      wire::Frame frame;
      std::string what;
      try {
        (void)wire::recv_frame(b, frame, 5.0, kTestMaxPayload);
      } catch (const CommTimeoutError& e) {
        FAIL() << "offset " << offset << " bit " << bit << ": timeout "
               << e.what();
      } catch (const Error& e) {
        what = e.what();
      }
      ASSERT_FALSE(what.empty())
          << "offset " << offset << " bit " << bit << " was accepted";
      // The magic and the length are checked before the checksum can be
      // computed; every other bit — type, seq, payload, trailer — is the
      // checksum's to catch.
      const char* expected =
          offset < 4 ? "bad frame magic"
          : offset >= kLengthField && offset < kLengthField + 8 ? "wire: "
                                                                : "checksum";
      EXPECT_NE(what.find(expected), std::string::npos)
          << "offset " << offset << " bit " << bit << ": " << what;
    }
  }
}

TEST(WireProtocol, FnvEraFrameGetsTheBadMagicError) {
  // A frame from a build that checksummed with FNV-1a: magic "VQWP" and a
  // u64 trailer.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  wire::Socket a(fds[0]);
  wire::Socket b(fds[1]);
  std::vector<unsigned char> raw =
      raw_header(0x50575156u, wire::FrameType::kContrib, 0, 8);
  raw.insert(raw.end(), 16, 0x5A);  // payload + old 8-byte trailer
  send_raw(a, raw);
  wire::Frame frame;
  try {
    (void)wire::recv_frame(b, frame, 5.0, kTestMaxPayload);
    FAIL() << "a VQWP frame was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("bad frame magic"), std::string::npos)
        << e.what();
  }
}

TEST(WireProtocol, PayloadClaimAboveTheBoundFailsBeforeReading) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  wire::Socket a(fds[0]);
  wire::Socket b(fds[1]);
  send_raw(a, raw_header(kFrameMagic, wire::FrameType::kContrib, 0,
                         0xFFFFFFFFull));
  wire::Frame frame;
  try {
    (void)wire::recv_frame(b, frame, 5.0, kTestMaxPayload);
    FAIL() << "a 4 GiB claim was accepted";
  } catch (const CommTimeoutError& e) {
    FAIL() << "waited for the claimed payload: " << e.what();
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("4294967295"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(kTestMaxPayload)), std::string::npos)
        << what;
  }
  EXPECT_EQ(frame.payload.capacity(), 0u);  // nothing was allocated
}

TEST(WireProtocol, ConnectRetriesWithBackoffUntilListenerAppears) {
  const std::string endpoint = fresh_unix_endpoint("latebind");
  long long attempts = 0;
  std::thread late_listener([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    wire::Listener listener = wire::listen_on(endpoint);
    wire::Socket conn = wire::accept_from(listener.socket, 5.0);
    wire::Frame frame;
    (void)wire::recv_frame(conn, frame, 5.0, kTestMaxPayload);
  });
  wire::Socket conn = wire::connect_to(endpoint, 10.0, /*jitter_seed=*/7,
                                       &attempts);
  EXPECT_TRUE(conn.valid());
  EXPECT_GE(attempts, 1);  // the listener was late, so at least one retry
  ASSERT_TRUE(wire::send_frame(conn, wire::FrameType::kHello, 0, nullptr, 0,
                               5.0));
  late_listener.join();
}

TEST(WireProtocol, ConnectDeadlineExpiresAsCommTimeout) {
  const std::string endpoint = fresh_unix_endpoint("nolistener");
  EXPECT_THROW((void)wire::connect_to(endpoint, 0.2, 1), CommTimeoutError);
}

// ---------------------------------------------------------------------------
// Socket group collectives (threads hosting real sockets over loopback)

TEST(SocketCommunicator, AllreduceSumMatchesRankArithmetic) {
  constexpr int kRanks = 4;
  run_socket_group(kRanks, [](Communicator& comm) {
    std::vector<Real> data = {Real(comm.rank() + 1), Real(10 * comm.rank())};
    comm.allreduce_sum(data);
    EXPECT_DOUBLE_EQ(data[0], 1 + 2 + 3 + 4);
    EXPECT_DOUBLE_EQ(data[1], 0 + 10 + 20 + 30);
  });
}

TEST(SocketCommunicator, AllreduceMaxAndBroadcastAndBarrier) {
  run_socket_group(3, [](Communicator& comm) {
    Real max_value = Real(comm.rank() * comm.rank());
    max_value = comm.allreduce_max(max_value);
    EXPECT_DOUBLE_EQ(max_value, 4.0);

    std::vector<Real> payload = {Real(comm.rank()), Real(-comm.rank())};
    if (comm.rank() == 1) payload = {123.0, -7.5};
    comm.broadcast(payload, /*root=*/1);
    EXPECT_DOUBLE_EQ(payload[0], 123.0);
    EXPECT_DOUBLE_EQ(payload[1], -7.5);

    comm.barrier();  // and the group dissolves cleanly afterwards
  });
}

TEST(SocketCommunicator, SingleRankGroupIsSelfContained) {
  run_socket_group(1, [](Communicator& comm) {
    EXPECT_EQ(comm.size(), 1);
    Real value = 5.0;
    value = comm.allreduce_sum(value);
    EXPECT_DOUBLE_EQ(value, 5.0);
    comm.barrier();
  });
}

/// Runs rank 0 of a 2-rank group in a thread while the test plays rank 1
/// by hand; records what rank 0 threw and how long it took.
struct LoneRoot {
  std::exception_ptr error;
  double seconds = 0;
  std::thread thread;

  LoneRoot(const std::string& endpoint, const SocketGroupOptions& options,
           const std::function<void(Communicator&)>& body) {
    thread = std::thread([this, endpoint, options, body] {
      const auto start = std::chrono::steady_clock::now();
      try {
        body(*connect_socket_group(endpoint, 0, 2, options));
      } catch (...) {
        error = std::current_exception();
      }
      seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    });
  }
  ~LoneRoot() {
    if (thread.joinable()) thread.join();
  }
  LoneRoot(const LoneRoot&) = delete;
  LoneRoot& operator=(const LoneRoot&) = delete;

  /// The message of the vqmc::Error rank 0 threw; fails the test on no
  /// error or a CommTimeoutError (a wait on the claimed bytes).
  std::string error_message() {
    thread.join();
    if (!error) {
      ADD_FAILURE() << "rank 0 accepted the lying header";
      return {};
    }
    try {
      std::rethrow_exception(error);
    } catch (const CommTimeoutError& e) {
      ADD_FAILURE() << "rank 0 waited for the claimed payload: " << e.what();
    } catch (const Error& e) {
      return e.what();
    }
    return {};
  }
};

constexpr std::uint64_t kLyingClaim = 0xFFFFFFFFull;  // 2^32 - 1 bytes

TEST(SocketCommunicator, LyingRendezvousHeaderFailsBeforeAllocating) {
  // Rank 0 bounds a HELLO by its exact size, one 8-byte rank, so a larger
  // claim ends at once in an Error naming both sizes instead of being
  // allocated and waited for until the rendezvous deadline. Two inputs: a
  // header claiming 4 GiB, and a whole HELLO in the previous layout (rank,
  // then an empty listen-endpoint string: 16 bytes) from an older build.
  const std::uint64_t previous_layout[2] = {1, 0};
  for (const std::uint64_t claim :
       {kLyingClaim, std::uint64_t(sizeof(previous_layout))}) {
    SCOPED_TRACE(claim);
    const std::string endpoint = fresh_unix_endpoint("lyinghello");
    SocketGroupOptions options;
    options.rendezvous_timeout_seconds = 10;
    LoneRoot root(endpoint, options, [](Communicator&) {});
    wire::Socket conn = wire::connect_to(endpoint, 10.0, /*jitter_seed=*/3);
    if (claim == kLyingClaim) {
      send_raw(conn, raw_header(kFrameMagic, wire::FrameType::kHello, 0,
                                kLyingClaim));
    } else {
      ASSERT_TRUE(wire::send_frame(conn, wire::FrameType::kHello, 0,
                                   previous_layout, sizeof(previous_layout),
                                   10.0));
    }
    const std::string what = root.error_message();
    EXPECT_NE(what.find(" " + std::to_string(claim) + " "), std::string::npos)
        << what;
    EXPECT_NE(what.find(" 8 "), std::string::npos) << what;
    EXPECT_LT(root.seconds, 5.0);
  }
}

TEST(SocketCommunicator, LyingCollectiveHeaderFailsBeforeAllocating) {
  // Rank 0 bounds a CONTRIB by its exact size for the collective at hand:
  // 24 header bytes + 8 per real.
  constexpr std::size_t kCount = 1000;
  const std::string endpoint = fresh_unix_endpoint("lyingcontrib");
  SocketGroupOptions options;
  options.timeout_seconds = 10;
  LoneRoot root(endpoint, options, [](Communicator& comm) {
    std::vector<Real> data(kCount, 1.0);
    comm.allreduce_sum(data);
  });
  // Rank 1 by hand: HELLO [rank 1], then WELCOME.
  wire::Socket conn = wire::connect_to(endpoint, 10.0, /*jitter_seed=*/4);
  const std::uint64_t hello = 1;
  ASSERT_TRUE(wire::send_frame(conn, wire::FrameType::kHello, 0, &hello,
                               sizeof(hello), 10.0));
  wire::Frame welcome;
  ASSERT_TRUE(wire::recv_frame(conn, welcome, 10.0, kTestMaxPayload));
  ASSERT_EQ(welcome.type, wire::FrameType::kWelcome);
  send_raw(conn, raw_header(kFrameMagic, wire::FrameType::kContrib, 0,
                            kLyingClaim));
  const std::string what = root.error_message();
  EXPECT_NE(what.find("4294967295"), std::string::npos) << what;
  EXPECT_NE(what.find(std::to_string(24 + 8 * kCount)), std::string::npos)
      << what;
  EXPECT_LT(root.seconds, 5.0);
}

TEST(SocketCommunicator, StarMatchesThreadBackendBitwiseBeforeAndAfterALeave) {
  // The star folds rank 0 and then ranks 1..L-1 in ascending order, as the
  // thread backend does. Both inputs are order-sensitive (floating-point
  // addition is not associative here), so any other fold order would change
  // the bits: the two backends must agree exactly on every rank, before and
  // after rank 2 leaves and both folds skip it.
  constexpr int kRanks = 5;
  constexpr int kLeaver = 2;
  const std::vector<Real> touchy = {0.1, 1e16, 0.2, -1e16, 0.7};
  const auto inputs = [&](int r) {
    return std::vector<Real>{touchy[std::size_t(r)],
                             std::pow(Real(10), r - 2) + Real(1) / Real(3 + r)};
  };
  // Per rank: the sum then the max of both inputs, before the leave and
  // (on the ranks that stay) after it.
  using Results = std::vector<std::vector<Real>>;
  const auto body = [&](Results& out) {
    return [&inputs, results = &out](Communicator& comm) {
      std::vector<Real>& mine = (*results)[std::size_t(comm.rank())];
      const auto reduce = [&] {
        std::vector<Real> sum = inputs(comm.rank());
        std::vector<Real> max = sum;
        comm.allreduce_sum(sum);
        comm.allreduce_max(max);
        mine.insert(mine.end(), sum.begin(), sum.end());
        mine.insert(mine.end(), max.begin(), max.end());
      };
      reduce();
      if (comm.rank() == kLeaver) {
        comm.leave();
        return;
      }
      reduce();
    };
  };
  Results threads(kRanks), sockets(kRanks);
  run_thread_group(kRanks, body(threads));
  run_socket_group(kRanks, body(sockets));

  for (int r = 0; r < kRanks; ++r) {
    SCOPED_TRACE(r);
    ASSERT_EQ(threads[std::size_t(r)].size(), r == kLeaver ? 4u : 8u);
    ASSERT_EQ(sockets[std::size_t(r)].size(), threads[std::size_t(r)].size());
    for (std::size_t i = 0; i < threads[std::size_t(r)].size(); ++i)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(sockets[std::size_t(r)][i]),
                std::bit_cast<std::uint64_t>(threads[std::size_t(r)][i]))
          << "result " << i;
  }
  // The inputs do tell fold orders apart: ascending rank order gives 0.7
  // over all five ranks, descending order 0.1.
  Real ascending = 0, descending = 0;
  for (int r = 0; r < kRanks; ++r) ascending += touchy[std::size_t(r)];
  for (int r = kRanks - 1; r >= 0; --r) descending += touchy[std::size_t(r)];
  EXPECT_NE(ascending, descending);
  EXPECT_EQ(sockets[0][0], ascending);
}

TEST(SocketCommunicator, EveryRankButTheRootMayLeave) {
  run_socket_group(4, [](Communicator& comm) {
    EXPECT_DOUBLE_EQ(comm.allreduce_sum(Real(1)), 4.0);
    if (comm.rank() == 0) {
      EXPECT_THROW(comm.leave(), Error);
    }
    if (comm.rank() == 1 || comm.rank() == 2) {
      comm.leave();
      return;
    }
    EXPECT_DOUBLE_EQ(comm.allreduce_sum(Real(1)), 2.0);
    EXPECT_EQ(comm.live_count(), 2);
  });
}

TEST(SocketCommunicator, GracefulLeaveShrinksDeterministically) {
  constexpr int kRanks = 4;
  std::vector<int> live_after(kRanks, -1);
  run_socket_group(kRanks, [&](Communicator& comm) {
    Real value = 1.0;
    value = comm.allreduce_sum(value);
    EXPECT_DOUBLE_EQ(value, 4.0);
    if (comm.rank() == 2) {
      comm.leave();
      return;
    }
    value = 1.0;
    value = comm.allreduce_sum(value);
    EXPECT_DOUBLE_EQ(value, 3.0);
    EXPECT_FALSE(comm.is_alive(2));
    live_after[std::size_t(comm.rank())] = comm.live_count();
  });
  EXPECT_EQ(live_after[0], 3);
  EXPECT_EQ(live_after[1], 3);
  EXPECT_EQ(live_after[3], 3);
}

TEST(SocketCommunicator, HungPeerTripsCollectiveDeadlineEverywhere) {
  SocketGroupOptions options;
  options.timeout_seconds = 0.3;
  std::atomic<int> timeouts{0};
  try {
    run_socket_group(3, [&](Communicator& comm) {
      try {
        if (comm.rank() == 2) {
          // Silent, connected, not contributing: the deadline is the only
          // liveness check that can catch this.
          comm.interruptible_sleep(20.0);
          return;
        }
        Real value = 1.0;
        value = comm.allreduce_sum(value);
      } catch (const CommTimeoutError&) {
        timeouts.fetch_add(1);
        throw;
      }
    }, options);
    FAIL() << "expected CommTimeoutError to propagate";
  } catch (const CommTimeoutError&) {
  }
  // Both blocked ranks observe the timeout; the sleeper wakes via the abort.
  EXPECT_GE(timeouts.load(), 2);
}

TEST(SocketCommunicator, EnvRendezvousMatchesExplicitArguments) {
  const std::string endpoint = fresh_unix_endpoint("env");
  ::setenv("VQMC_ENDPOINT", endpoint.c_str(), 1);
  ::setenv("VQMC_RANKS", "2", 1);
  std::thread peer([&] {
    auto comm = connect_socket_group(endpoint, 1, 2);
    Real value = 10.0;
    value = comm->allreduce_sum(value);
    EXPECT_DOUBLE_EQ(value, 11.0);
  });
  ::setenv("VQMC_RANK", "0", 1);
  auto comm = connect_socket_group_from_env();
  EXPECT_EQ(comm->rank(), 0);
  EXPECT_EQ(comm->size(), 2);
  Real value = 1.0;
  value = comm->allreduce_sum(value);
  EXPECT_DOUBLE_EQ(value, 11.0);
  peer.join();
  ::unsetenv("VQMC_ENDPOINT");
  ::unsetenv("VQMC_RANK");
  ::unsetenv("VQMC_RANKS");
}

// ---------------------------------------------------------------------------
// Real process death (fork + SIGKILL)

// Forks a child that joins the group as `rank` and runs `child_body`; the
// parent returns the child pid. The child NEVER returns: it _exit()s (or is
// killed) so gtest state is not duplicated.
template <typename Body>
pid_t fork_rank(Body child_body) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  int status = 0;
  try {
    child_body();
  } catch (...) {
    status = 1;
  }
  ::_exit(status);
}

TEST(SocketCommunicatorProcess, RealProcessDeathShrinksSurvivors) {
  const std::string endpoint = fresh_unix_endpoint("death");
  SocketGroupOptions options;
  options.timeout_seconds = 5.0;

  // Rank 2 (child process) dies hard after the first collective.
  const pid_t victim = fork_rank([&] {
    auto comm = connect_socket_group(endpoint, 2, 3, options);
    Real value = 1.0;
    value = comm->allreduce_sum(value);
    std::raise(SIGKILL);
  });
  const pid_t peer = fork_rank([&] {
    auto comm = connect_socket_group(endpoint, 1, 3, options);
    Real value = 1.0;
    value = comm->allreduce_sum(value);
    if (value != 3.0) ::_exit(2);
    value = 1.0;
    value = comm->allreduce_sum(value);
    if (value != 2.0) ::_exit(3);
    if (comm->is_alive(2) || comm->live_count() != 2) ::_exit(4);
    ::_exit(0);
  });

  auto comm = connect_socket_group(endpoint, 0, 3, options);
  Real value = 1.0;
  value = comm->allreduce_sum(value);
  EXPECT_DOUBLE_EQ(value, 3.0);
  // Give the kernel a moment to deliver the victim's FIN, then fold it out.
  int status = 0;
  ASSERT_EQ(::waitpid(victim, &status, 0), victim);
  EXPECT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGKILL);

  value = 1.0;
  value = comm->allreduce_sum(value);
  EXPECT_DOUBLE_EQ(value, 2.0);
  EXPECT_FALSE(comm->is_alive(2));
  EXPECT_EQ(comm->live_count(), 2);
  ASSERT_EQ(comm->observed_deaths().size(), 1u);
  EXPECT_EQ(comm->observed_deaths()[0], 2);

  ASSERT_EQ(::waitpid(peer, &status, 0), peer);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(SocketCommunicatorProcess, AbortPolicyTurnsDeathIntoGroupTimeout) {
  const std::string endpoint = fresh_unix_endpoint("abortpolicy");
  SocketGroupOptions options;
  options.timeout_seconds = 5.0;
  options.on_peer_death = PeerDeathPolicy::kAbort;

  const pid_t victim = fork_rank([&] {
    auto comm = connect_socket_group(endpoint, 1, 2, options);
    Real value = 1.0;
    value = comm->allreduce_sum(value);
    std::raise(SIGKILL);
  });

  auto comm = connect_socket_group(endpoint, 0, 2, options);
  Real value = 1.0;
  value = comm->allreduce_sum(value);
  EXPECT_DOUBLE_EQ(value, 2.0);
  int status = 0;
  ASSERT_EQ(::waitpid(victim, &status, 0), victim);

  value = 1.0;
  EXPECT_THROW(comm->allreduce_sum(std::span<Real>(&value, 1)),
               CommTimeoutError);
}

TEST(SocketCommunicatorProcess, ScriptedBoundaryKillViaProcessFaultPlan) {
  const std::string endpoint = fresh_unix_endpoint("plan");
  SocketGroupOptions options;
  options.timeout_seconds = 5.0;
  const auto plans = parse_process_fault_specs({"kill:rank=1,iter=2"}, 2);

  const pid_t victim = fork_rank([&] {
    auto comm = connect_socket_group(endpoint, 1, 2, options);
    for (long long iter = 0;; ++iter) {
      apply_process_faults_at_iteration(plans[1], iter, *comm);
      Real value = 1.0;
      value = comm->allreduce_sum(value);
    }
  });

  auto comm = connect_socket_group(endpoint, 0, 2, options);
  std::vector<Real> history;
  for (long long iter = 0; iter < 4; ++iter) {
    Real value = 1.0;
    value = comm->allreduce_sum(value);
    history.push_back(value);
    if (iter == 1) {
      int status = 0;
      ASSERT_EQ(::waitpid(victim, &status, 0), victim);
      ASSERT_TRUE(WIFSIGNALED(status));
      ASSERT_EQ(WTERMSIG(status), SIGKILL);
    }
  }
  // Iterations 0 and 1 see both ranks; the boundary kill before iteration 2
  // shrinks every later collective deterministically.
  const std::vector<Real> expected = {2.0, 2.0, 1.0, 1.0};
  EXPECT_EQ(history, expected);
}

// ---------------------------------------------------------------------------
// Process fault plan parsing

TEST(ProcessFaultPlan, ParsesKillLeaveStopSpecs) {
  const auto plans = parse_process_fault_specs(
      {"kill:rank=2,iter=10", "leave:rank=1,iter=4",
       "stop:rank=3,iter=5,secs=1.5"},
      4);
  ASSERT_EQ(plans.size(), 4u);
  EXPECT_TRUE(plans[0].empty());
  EXPECT_EQ(plans[1].leave_at_iteration, 4);
  EXPECT_EQ(plans[2].kill_at_iteration, 10);
  EXPECT_EQ(plans[3].stop_at_iteration, 5);
  EXPECT_DOUBLE_EQ(plans[3].stop_seconds, 1.5);
}

TEST(ProcessFaultPlan, RoundTripsThroughSpecFormat) {
  ProcessFaultPlan plan;
  plan.kill_at_iteration = 7;
  const std::string spec = format_process_fault_spec(plan, 3);
  int rank = -1;
  const ProcessFaultPlan parsed = parse_process_fault_spec(spec, 4, &rank);
  EXPECT_EQ(rank, 3);
  EXPECT_EQ(parsed.kill_at_iteration, 7);
}

TEST(ProcessFaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW((void)parse_process_fault_specs({"explode:rank=0,iter=1"}, 2),
               Error);
  EXPECT_THROW((void)parse_process_fault_specs({"kill:rank=9,iter=1"}, 2),
               Error);
  EXPECT_THROW((void)parse_process_fault_specs({"kill:rank=0"}, 2), Error);
  EXPECT_THROW((void)parse_process_fault_specs({"kill:rank=0,iter=1,secs=2"},
                                               2),
               Error);
}

}  // namespace
}  // namespace vqmc::parallel
