#include <gtest/gtest.h>

#include <numeric>

#include "mpi_test_util.hpp"

namespace mgq::mpi {
namespace {

using sim::Task;
using testing::Cluster;
using testing::bytesVec;
using testing::doublesVec;

// Collective correctness across communicator sizes, including non-powers
// of two (binomial-tree edge cases).
class CollectiveSizeTest : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Sizes, CollectiveSizeTest,
                         ::testing::Values(2, 3, 4, 5, 7, 8));

TEST_P(CollectiveSizeTest, BarrierSynchronizes) {
  const int n = GetParam();
  Cluster cluster(n);
  std::vector<double> after(static_cast<size_t>(n), -1);
  cluster.run([&](Comm& comm) -> Task<> {
    auto& sim = comm.world().simulator();
    // Stagger arrival: rank r waits r*10ms before the barrier.
    co_await sim.delay(sim::Duration::millis(10 * comm.rank()));
    co_await comm.barrier();
    after[static_cast<size_t>(comm.rank())] = sim.now().toSeconds();
  });
  ASSERT_TRUE(cluster.world->allFinished());
  // Nobody leaves the barrier before the last rank arrived.
  const double last_arrival = 0.01 * (n - 1);
  for (int r = 0; r < n; ++r) {
    EXPECT_GE(after[static_cast<size_t>(r)], last_arrival) << "rank " << r;
  }
}

TEST_P(CollectiveSizeTest, BcastDeliversFromEveryRoot) {
  const int n = GetParam();
  Cluster cluster(n);
  int failures = 0;
  cluster.run([&](Comm& comm) -> Task<> {
    for (int root = 0; root < comm.size(); ++root) {
      std::vector<std::uint8_t> data;
      if (comm.rank() == root) {
        data = bytesVec(root + 1, 7, 9);
      }
      co_await comm.bcast(data, root);
      if (data != bytesVec(root + 1, 7, 9)) {
        ++failures;
      }
    }
  });
  ASSERT_TRUE(cluster.world->allFinished());
  EXPECT_EQ(failures, 0);
}

TEST_P(CollectiveSizeTest, ReduceSumAtEveryRoot) {
  const int n = GetParam();
  Cluster cluster(n);
  int failures = 0;
  cluster.run([&](Comm& comm) -> Task<> {
    for (int root = 0; root < comm.size(); ++root) {
      const std::vector<double> mine = doublesVec(comm.rank(), 1.0);
      auto out = co_await comm.reduce(mine, root);
      if (comm.rank() == root) {
        const double expect_sum = n * (n - 1) / 2.0;
        if (out.size() != 2 || out[0] != expect_sum || out[1] != n) {
          ++failures;
        }
      } else if (!out.empty()) {
        ++failures;
      }
    }
  });
  ASSERT_TRUE(cluster.world->allFinished());
  EXPECT_EQ(failures, 0);
}

TEST_P(CollectiveSizeTest, AllreduceSum) {
  const int n = GetParam();
  Cluster cluster(n);
  int failures = 0;
  cluster.run([&](Comm& comm) -> Task<> {
    const std::vector<double> mine = doublesVec(comm.rank(), 1.0);
    auto sum = co_await comm.allreduce(mine);
    // Every rank, not only the reduce root, holds the total.
    if (sum.size() != 2 || sum[0] != n * (n - 1) / 2 || sum[1] != n) {
      ++failures;
    }
  });
  ASSERT_TRUE(cluster.world->allFinished());
  EXPECT_EQ(failures, 0);
}

TEST(CollectiveTest, ConsecutiveBarriersDoNotCrossTalk) {
  Cluster cluster(4);
  cluster.run([&](Comm& comm) -> Task<> {
    for (int i = 0; i < 25; ++i) co_await comm.barrier();
  });
  EXPECT_TRUE(cluster.world->allFinished());
}

TEST(CollectiveTest, CollectivesDoNotInterceptUserWildcards) {
  // A rank posting recv(kAnySource, kAnyTag) must never receive internal
  // collective traffic.
  Cluster cluster(2);
  bool got_user_message = false;
  cluster.run([&](Comm& comm) -> Task<> {
    if (comm.rank() == 0) {
      auto req = comm.irecv(kAnySource, kAnyTag);
      co_await comm.barrier();
      co_await comm.send(1, 1, bytesVec(9));
      Message m = co_await comm.wait(std::move(req));
      got_user_message = (m.data.size() == 1 && m.data[0] == 5);
    } else {
      co_await comm.barrier();
      Message m = co_await comm.recv(0, 1);
      (void)m;
      co_await comm.send(0, 2, bytesVec(5));
    }
  });
  ASSERT_TRUE(cluster.world->allFinished());
  EXPECT_TRUE(got_user_message);
}

}  // namespace
}  // namespace mgq::mpi
