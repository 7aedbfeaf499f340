// Communicator management: pair communicators, context isolation,
// attributes and the MPICH-GQ put trigger, flow extraction.
#include <gtest/gtest.h>

#include "mpi_test_util.hpp"

namespace mgq::mpi {
namespace {

using sim::Task;
using testing::Cluster;
using testing::bytesVec;

TEST(CommTest, PairCommunicatorTwoParty) {
  Cluster cluster(4);
  bool exchanged = false;
  cluster.run([&](Comm& comm) -> Task<> {
    // Ranks 1 and 3 build a private pair communicator.
    if (comm.rank() == 1 || comm.rank() == 3) {
      const int other = comm.rank() == 1 ? 3 : 1;
      Comm pair = co_await comm.createPair(other);
      EXPECT_EQ(pair.size(), 2);
      EXPECT_EQ(pair.rank(), comm.rank() == 1 ? 0 : 1);
      if (pair.rank() == 0) {
        co_await pair.send(1, 0, bytesVec(77));
      } else {
        Message m = co_await pair.recv(0, 0);
        exchanged = m.data[0] == 77;
      }
    }
  });
  ASSERT_TRUE(cluster.world->allFinished());
  EXPECT_TRUE(exchanged);
}

TEST(CommTest, MultiplePairsBetweenSameRanksAreIsolated) {
  Cluster cluster(2);
  bool ok = false;
  cluster.run([&](Comm& comm) -> Task<> {
    const int other = 1 - comm.rank();
    Comm p1 = co_await comm.createPair(other);
    Comm p2 = co_await comm.createPair(other);
    EXPECT_NE(p1.context(), p2.context());
    if (comm.rank() == 0) {
      co_await p2.send(1, 0, bytesVec(2));
      co_await p1.send(1, 0, bytesVec(1));
    } else {
      Message m1 = co_await p1.recv(0, 0);
      Message m2 = co_await p2.recv(0, 0);
      ok = m1.data[0] == 1 && m2.data[0] == 2;
    }
  });
  ASSERT_TRUE(cluster.world->allFinished());
  EXPECT_TRUE(ok);
}

TEST(CommTest, AttributesPutGet) {
  Cluster cluster(2);
  int value = 42;
  bool ok = false;
  cluster.run([&](Comm& comm) -> Task<> {
    auto& reg = comm.world().attributes();
    static Keyval keyval = kInvalidKeyval;
    if (comm.rank() == 0) keyval = reg.create();
    co_await comm.barrier();  // rank 0 created it (registry is shared)
    if (comm.rank() == 0) {
      void* out = nullptr;
      EXPECT_FALSE(comm.attrGet(keyval, &out));  // created, not yet put
      EXPECT_TRUE(comm.attrPut(keyval, &value));
      EXPECT_TRUE(comm.attrGet(keyval, &out));
      EXPECT_EQ(out, &value);
      ok = true;
    } else {
      void* out = nullptr;
      EXPECT_FALSE(comm.attrGet(keyval, &out));  // per-communicator storage
    }
    co_return;
  });
  EXPECT_TRUE(ok);
}

TEST(CommTest, UnknownKeyvalRejected) {
  Cluster cluster(2);
  bool checked = false;
  cluster.run([&](Comm& comm) -> Task<> {
    if (comm.rank() == 0) {
      int v = 0;
      EXPECT_FALSE(comm.attrPut(9999, &v));
      checked = true;
    }
    co_return;
  });
  EXPECT_TRUE(checked);
}

TEST(CommTest, PutHookFires) {
  // The MPICH-GQ mechanism: putting the attribute triggers the action.
  Cluster cluster(2);
  int fired = 0;
  void* seen_value = nullptr;
  cluster.run([&](Comm& comm) -> Task<> {
    auto& reg = comm.world().attributes();
    static Keyval keyval = kInvalidKeyval;
    if (comm.rank() == 0) {
      keyval = reg.create();
      reg.setPutHook(keyval, [&](Comm& c, Keyval k, void* v) {
        (void)c;
        (void)k;
        ++fired;
        seen_value = v;
      });
      static int value = 7;
      comm.attrPut(keyval, &value);
      comm.attrPut(keyval, &value);  // every put triggers
      EXPECT_EQ(seen_value, &value);
    }
    co_return;
  });
  EXPECT_EQ(fired, 2);
}

TEST(CommTest, EstablishOutgoingFlowsReturnsPerPeerKeys) {
  Cluster cluster(3);
  std::vector<net::FlowKey> flows;
  cluster.run([&](Comm& comm) -> Task<> {
    if (comm.rank() == 0) {
      flows = co_await comm.establishOutgoingFlows();
    }
    co_return;
  });
  ASSERT_EQ(flows.size(), 2u);
  for (const auto& flow : flows) {
    EXPECT_EQ(flow.proto, net::Protocol::kTcp);
    EXPECT_NE(flow.src, flow.dst);
    EXPECT_GE(flow.src_port, 49152);  // ephemeral client side
  }
  EXPECT_NE(flows[0].dst, flows[1].dst);
}

TEST(CommTest, SameHostRanksProduceNoFlows) {
  sim::Simulator sim;
  net::Network net(sim);
  auto& host = net.addHost("smp");
  auto& other = net.addHost("other");
  net.connect(host, other, net::LinkConfig{});
  net.computeRoutes();
  World::Config config;
  config.hosts = {&host, &host};
  World world(sim, config);
  std::size_t flow_count = 99;
  world.launch([&](Comm& comm) -> Task<> {
    if (comm.rank() == 0) {
      auto flows = co_await comm.establishOutgoingFlows();
      flow_count = flows.size();
    }
  });
  sim.runFor(sim::Duration::seconds(5));
  EXPECT_EQ(flow_count, 0u);
}

}  // namespace
}  // namespace mgq::mpi
