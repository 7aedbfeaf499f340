#include <gtest/gtest.h>

#include <numeric>

#include "mpi_test_util.hpp"

namespace mgq::mpi {
namespace {

using sim::Task;
using testing::Cluster;

using testing::bytesVec;

TEST(MpiP2PTest, BasicSendRecv) {
  Cluster cluster(2);
  bool checked = false;
  cluster.run([&](Comm& comm) -> Task<> {
    if (comm.rank() == 0) {
      co_await comm.send(1, 7, bytesVec(1, 2, 3));
    } else {
      Message m = co_await comm.recv(0, 7);
      EXPECT_EQ(m.source, 0);
      EXPECT_EQ(m.tag, 7);
      EXPECT_EQ(m.data, bytesVec(1, 2, 3));
      checked = true;
    }
  });
  EXPECT_TRUE(cluster.world->allFinished());
  EXPECT_TRUE(checked);
}

TEST(MpiP2PTest, MessagesDoNotOvertake) {
  Cluster cluster(2);
  std::vector<int> received;
  cluster.run([&](Comm& comm) -> Task<> {
    if (comm.rank() == 0) {
      for (int i = 0; i < 20; ++i) {
        co_await comm.send(1, 5, bytesVec(i));
      }
    } else {
      for (int i = 0; i < 20; ++i) {
        Message m = co_await comm.recv(0, 5);
        received.push_back(m.data[0]);
      }
    }
  });
  ASSERT_EQ(received.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(received[static_cast<size_t>(i)], i);
}

TEST(MpiP2PTest, TagSelectivity) {
  Cluster cluster(2);
  std::vector<int> order;
  cluster.run([&](Comm& comm) -> Task<> {
    if (comm.rank() == 0) {
      co_await comm.send(1, 10, bytesVec(10));
      co_await comm.send(1, 20, bytesVec(20));
    } else {
      // Receive tag 20 first even though tag 10 arrived first.
      Message m20 = co_await comm.recv(0, 20);
      Message m10 = co_await comm.recv(0, 10);
      order.push_back(m20.data[0]);
      order.push_back(m10.data[0]);
    }
  });
  EXPECT_EQ(order, (std::vector<int>{20, 10}));
}

TEST(MpiP2PTest, AnySourceAndAnyTag) {
  Cluster cluster(3);
  int sum = 0;
  cluster.run([&](Comm& comm) -> Task<> {
    if (comm.rank() != 0) {
      co_await comm.send(0, comm.rank() * 100, bytesVec(comm.rank()));
    } else {
      for (int i = 0; i < 2; ++i) {
        Message m = co_await comm.recv(kAnySource, kAnyTag);
        EXPECT_EQ(m.tag, m.source * 100);
        sum += m.data[0];
      }
    }
  });
  EXPECT_EQ(sum, 3);  // ranks 1 and 2
}

TEST(MpiP2PTest, LargeMessageIntegrity) {
  Cluster cluster(2);
  bool verified = false;
  cluster.run([&](Comm& comm) -> Task<> {
    constexpr std::size_t kSize = 300'000;
    if (comm.rank() == 0) {
      std::vector<std::uint8_t> payload(kSize);
      for (std::size_t i = 0; i < kSize; ++i) {
        payload[i] = static_cast<std::uint8_t>((i * 31) & 0xff);
      }
      co_await comm.send(1, 1, payload);
    } else {
      Message m = co_await comm.recv(0, 1);
      EXPECT_EQ(m.size(), kSize);
      bool ok = m.size() == kSize;
      for (std::size_t i = 0; ok && i < kSize; ++i) {
        ok &= m.data[i] == static_cast<std::uint8_t>((i * 31) & 0xff);
      }
      EXPECT_TRUE(ok);
      verified = true;
    }
  });
  EXPECT_TRUE(verified);
}

TEST(MpiP2PTest, NonblockingSendRecvOverlap) {
  Cluster cluster(2);
  bool done = false;
  cluster.run([&](Comm& comm) -> Task<> {
    if (comm.rank() == 0) {
      auto r1 = comm.isend(1, 1, bytesVec(1));
      auto r2 = comm.isend(1, 2, bytesVec(2));
      co_await comm.wait(std::move(r1));
      co_await comm.wait(std::move(r2));
    } else {
      auto r2 = comm.irecv(0, 2);
      auto r1 = comm.irecv(0, 1);
      Message m2 = co_await comm.wait(std::move(r2));
      Message m1 = co_await comm.wait(std::move(r1));
      EXPECT_EQ(m1.data[0], 1);
      EXPECT_EQ(m2.data[0], 2);
      done = true;
    }
  });
  EXPECT_TRUE(done);
}

TEST(MpiP2PTest, SendrecvExchange) {
  Cluster cluster(2);
  std::vector<int> got(2, -1);
  cluster.run([&](Comm& comm) -> Task<> {
    const int peer = 1 - comm.rank();
    // Both ranks send before either receives: the nonblocking send keeps
    // the pairwise exchange deadlock-free (the halo-exchange pattern).
    auto sent = comm.isend(peer, 3, bytesVec(comm.rank() + 40));
    Message m = co_await comm.recv(peer, 3);
    co_await comm.wait(std::move(sent));
    got[static_cast<size_t>(comm.rank())] = m.data[0];
  });
  EXPECT_EQ(got[0], 41);
  EXPECT_EQ(got[1], 40);
}

TEST(MpiP2PTest, SelfMessagingOnSameHostPair) {
  // Two ranks on the SAME host (multiprocessor node) still communicate.
  sim::Simulator sim;
  net::Network net(sim);
  auto& host = net.addHost("smp");
  auto& peer = net.addHost("other");
  net.connect(host, peer, net::LinkConfig{});
  net.computeRoutes();
  World::Config config;
  config.hosts = {&host, &host};  // both ranks on one node
  World world(sim, config);
  bool ok = false;
  world.launch([&](Comm& comm) -> Task<> {
    if (comm.rank() == 0) {
      co_await comm.send(1, 1, bytesVec(42));
    } else {
      Message m = co_await comm.recv(0, 1);
      ok = m.data[0] == 42;
    }
  });
  sim.runFor(sim::Duration::seconds(10));
  EXPECT_TRUE(ok);
}

TEST(MpiP2PTest, ZeroLengthMessage) {
  Cluster cluster(2);
  bool got = false;
  cluster.run([&](Comm& comm) -> Task<> {
    if (comm.rank() == 0) {
      co_await comm.send(1, 4, bytesVec());
    } else {
      Message m = co_await comm.recv(0, 4);
      got = true;
      EXPECT_EQ(m.size(), 0u);
    }
  });
  EXPECT_TRUE(got);
}

TEST(MpiP2PTest, ConcurrentSendersToOneReceiver) {
  Cluster cluster(8);
  std::int64_t total = 0;
  cluster.run([&](Comm& comm) -> Task<> {
    if (comm.rank() == 0) {
      for (int i = 1; i < comm.size(); ++i) {
        Message m = co_await comm.recv(kAnySource, 1);
        total += m.data[0];
      }
    } else {
      co_await comm.send(0, 1, bytesVec(comm.rank()));
    }
  });
  EXPECT_EQ(total, 1 + 2 + 3 + 4 + 5 + 6 + 7);
}

}  // namespace
}  // namespace mgq::mpi
