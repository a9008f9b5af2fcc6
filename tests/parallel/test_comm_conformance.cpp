// Shared conformance suite for Communicator backends: every test runs
// against both the thread-backed group and the socket-backed group, proving
// the two implement the same collective contract — including the parts the
// trainer depends on for determinism (rank-order folds, membership after
// leave(), per-collective deadlines).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "parallel/socket_communicator.hpp"
#include "parallel/thread_communicator.hpp"

namespace vqmc::parallel {
namespace {

enum class Backend : int { kThreads, kSockets };

// Pointer-free on purpose: GoogleTest prints a param that has no operator<<
// as its raw bytes, and gtest_discover_tests copies that text into every
// ctest name. A pointer (a name string, a std::function target) would put a
// load address into the names, so they would change with every build.
struct BackendParam {
  char name[32];
  Backend backend;
  int node_size;  // sockets only; 0 = flat ring
};

class CommConformance : public ::testing::TestWithParam<BackendParam> {
 protected:
  // Runs `body` on `num_ranks` endpoints with the given collective deadline.
  void run(int num_ranks, const std::function<void(Communicator&)>& body,
           double timeout_seconds = 0) {
    const BackendParam& param = GetParam();
    if (param.backend == Backend::kThreads) {
      GroupOptions options;
      options.timeout_seconds = timeout_seconds;
      run_thread_group(num_ranks, body, options);
    } else {
      SocketGroupOptions options;
      options.timeout_seconds = timeout_seconds;
      options.node_size = param.node_size;
      run_socket_group(num_ranks, body, options);
    }
  }
};

TEST_P(CommConformance, RankAndSizeAreConsistent) {
  std::atomic<int> seen{0};
  run(3, [&](Communicator& comm) {
    EXPECT_EQ(comm.size(), 3);
    EXPECT_GE(comm.rank(), 0);
    EXPECT_LT(comm.rank(), 3);
    EXPECT_EQ(comm.live_count(), 3);
    EXPECT_TRUE(comm.is_alive(comm.rank()));
    seen.fetch_add(1);
  });
  EXPECT_EQ(seen.load(), 3);
}

TEST_P(CommConformance, AllreduceSumIsBitIdenticalAcrossRanks) {
  // Accumulating floats in different orders gives different bits; the
  // contract is a fixed rank-order fold, so every rank must see the same
  // bit pattern of the same sum.
  constexpr int kRanks = 4;
  std::vector<Real> results(kRanks, 0);
  run(kRanks, [&](Communicator& comm) {
    // Values chosen so floating-point addition is order-sensitive.
    std::vector<Real> data = {std::pow(Real(10), comm.rank() - 2) + Real(1) /
                                  Real(3 + comm.rank())};
    comm.allreduce_sum(data);
    results[std::size_t(comm.rank())] = data[0];
  });
  for (int r = 1; r < kRanks; ++r) EXPECT_EQ(results[0], results[std::size_t(r)]);
}

TEST_P(CommConformance, AllreduceMaxScalar) {
  run(3, [](Communicator& comm) {
    const Real result = comm.allreduce_max(Real(comm.rank() == 1 ? 50 : 1));
    EXPECT_DOUBLE_EQ(result, 50.0);
  });
}

TEST_P(CommConformance, BroadcastFromEveryRoot) {
  constexpr int kRanks = 3;
  run(kRanks, [](Communicator& comm) {
    for (int root = 0; root < kRanks; ++root) {
      std::vector<Real> payload(2, Real(comm.rank()));
      if (comm.rank() == root) payload = {Real(100 + root), Real(-root)};
      comm.broadcast(payload, root);
      EXPECT_DOUBLE_EQ(payload[0], 100 + root);
      EXPECT_DOUBLE_EQ(payload[1], -root);
    }
  });
}

TEST_P(CommConformance, BarrierSynchronizesPhases) {
  constexpr int kRanks = 4;
  std::atomic<int> phase_one{0};
  run(kRanks, [&](Communicator& comm) {
    phase_one.fetch_add(1);
    comm.barrier();
    // Everyone reached the barrier, so every increment must be visible.
    EXPECT_EQ(phase_one.load(), kRanks);
    (void)comm;
  });
}

TEST_P(CommConformance, LeaveShrinksMembershipAndReductions) {
  constexpr int kRanks = 4;
  run(kRanks, [](Communicator& comm) {
    Real value = comm.allreduce_sum(Real(1));
    EXPECT_DOUBLE_EQ(value, 4.0);
    if (comm.rank() == 3) {
      comm.leave();
      return;
    }
    value = comm.allreduce_sum(Real(1));
    EXPECT_DOUBLE_EQ(value, 3.0);
    EXPECT_EQ(comm.live_count(), 3);
    EXPECT_FALSE(comm.is_alive(3));
    EXPECT_TRUE(comm.is_alive(comm.rank()));
  });
}

TEST_P(CommConformance, SequentialLeavesDownToOneRank) {
  constexpr int kRanks = 3;
  run(kRanks, [](Communicator& comm) {
    // Highest live rank leaves each round; the reduction shrinks 3 -> 2 -> 1.
    for (int live = kRanks; live >= 2; --live) {
      const Real value = comm.allreduce_sum(Real(1));
      EXPECT_DOUBLE_EQ(value, live);
      if (comm.rank() == live - 1) {
        comm.leave();
        return;
      }
    }
    EXPECT_EQ(comm.rank(), 0);
    EXPECT_DOUBLE_EQ(comm.allreduce_sum(Real(1)), 1.0);
  });
}

TEST_P(CommConformance, DeadlineOnHungPeerThrowsCommTimeout) {
  std::atomic<int> timeouts{0};
  try {
    run(3, [&](Communicator& comm) {
      if (comm.rank() == 2) {
        comm.interruptible_sleep(20.0);  // never joins the collective
        return;
      }
      try {
        (void)comm.allreduce_sum(Real(1));
      } catch (const CommTimeoutError&) {
        timeouts.fetch_add(1);
        throw;
      }
    }, /*timeout_seconds=*/0.3);
    FAIL() << "expected CommTimeoutError";
  } catch (const CommTimeoutError&) {
  }
  EXPECT_GE(timeouts.load(), 2);
}

TEST_P(CommConformance, ScalarOverloadsMatchSpanForms) {
  run(2, [](Communicator& comm) {
    const Real sum = comm.allreduce_sum(Real(comm.rank() + 1));
    EXPECT_DOUBLE_EQ(sum, 3.0);
    std::vector<Real> span_data = {Real(comm.rank() + 1)};
    comm.allreduce_sum(span_data);
    EXPECT_EQ(sum, span_data[0]);  // identical fold, identical bits
  });
}

INSTANTIATE_TEST_SUITE_P(
    Backends, CommConformance,
    ::testing::Values(BackendParam{"threads", Backend::kThreads, 0},
                      BackendParam{"sockets", Backend::kSockets, 0},
                      BackendParam{"sockets_hierarchical", Backend::kSockets,
                                   2}),
    [](const ::testing::TestParamInfo<BackendParam>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace vqmc::parallel
