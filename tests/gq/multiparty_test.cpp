// QoS on communicators with more than two parties, attribute edge cases,
// and racing re-puts.
#include <gtest/gtest.h>

#include "apps/garnet_rig.hpp"
#include "gq/qos_agent.hpp"
#include "net/udp.hpp"

namespace mgq::gq {
namespace {

using sim::Duration;
using sim::Task;

/// Three hosts behind one edge router; a 3-rank world.
struct TriFixture {
  TriFixture() : network(sim), gara(sim) {
    hosts.push_back(&network.addHost("h0"));
    hosts.push_back(&network.addHost("h1"));
    hosts.push_back(&network.addHost("h2"));
    router = &network.addRouter("edge");
    for (auto* h : hosts) network.connect(*h, *router, net::LinkConfig{});
    network.computeRoutes();
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      managers.push_back(std::make_unique<gara::NetworkResourceManager>(
          40e6, *router->interfaces()[i]));
      gara.registerManager("edge-" + std::to_string(i), *managers.back());
    }
    mpi::World::Config wc;
    wc.hosts = hosts;
    world = std::make_unique<mpi::World>(sim, wc);
    QosAgent::Config ac;
    ac.default_network_resource = "edge-0";
    ac.resource_resolver = [this](const net::FlowKey& flow) {
      for (std::size_t i = 0; i < hosts.size(); ++i) {
        if (hosts[i]->id() == flow.src) return "edge-" + std::to_string(i);
      }
      return std::string();
    };
    agent = std::make_unique<QosAgent>(*world, gara, ac);
  }

  sim::Simulator sim;
  net::Network network;
  std::vector<net::Host*> hosts;
  net::Router* router;
  gara::Gara gara;
  std::vector<std::unique_ptr<gara::NetworkResourceManager>> managers;
  std::unique_ptr<mpi::World> world;
  std::unique_ptr<QosAgent> agent;
};

TEST(MultipartyQosTest, EachRankReservesOneFlowPerPeer) {
  TriFixture f;
  QosAttribute attr;
  attr.qosclass = QosClass::kPremium;
  attr.bandwidth_kbps = 1000.0;
  int granted = 0;
  f.world->launch([&](mpi::Comm& comm) -> Task<> {
    comm.attrPut(f.agent->keyval(), &attr);
    co_await f.agent->awaitSettled(comm);
    if (f.agent->status(comm).state == QosRequestState::kGranted) ++granted;
  });
  f.sim.runFor(Duration::seconds(10));
  EXPECT_EQ(granted, 3);
  // Each rank reserved flows to its 2 peers, enforced at its own edge.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(f.router->interfaces()[i]->ingressPolicy().ruleCount(), 2u)
        << "edge " << i;
    EXPECT_NEAR(f.managers[i]->slots().usedAt(f.sim.now()),
                2 * 1000e3 * 1.06, 10.0)
        << "edge " << i;
  }
}

TEST(MultipartyQosTest, ReleaseOnOneRankLeavesOthersIntact) {
  TriFixture f;
  QosAttribute attr;
  attr.qosclass = QosClass::kPremium;
  attr.bandwidth_kbps = 500.0;
  f.world->launch([&](mpi::Comm& comm) -> Task<> {
    comm.attrPut(f.agent->keyval(), &attr);
    co_await f.agent->awaitSettled(comm);
    if (comm.rank() == 1) f.agent->release(comm);
  });
  f.sim.runFor(Duration::seconds(10));
  EXPECT_EQ(f.router->interfaces()[0]->ingressPolicy().ruleCount(), 2u);
  EXPECT_EQ(f.router->interfaces()[1]->ingressPolicy().ruleCount(), 0u);
  EXPECT_EQ(f.router->interfaces()[2]->ingressPolicy().ruleCount(), 2u);
}

TEST(MultipartyQosTest, RapidRePutsLastOneWins) {
  TriFixture f;
  // Three puts in quick succession before any settles: only the last
  // request's reservations must survive.
  QosAttribute a1, a2, a3;
  for (auto* a : {&a1, &a2, &a3}) a->qosclass = QosClass::kPremium;
  a1.bandwidth_kbps = 1000.0;
  a2.bandwidth_kbps = 2000.0;
  a3.bandwidth_kbps = 3000.0;
  f.world->launch([&](mpi::Comm& comm) -> Task<> {
    if (comm.rank() == 0) {
      comm.attrPut(f.agent->keyval(), &a1);
      comm.attrPut(f.agent->keyval(), &a2);
      comm.attrPut(f.agent->keyval(), &a3);
      co_await f.agent->awaitSettled(comm);
    }
    co_return;
  });
  f.sim.runFor(Duration::seconds(10));
  auto& comm = f.world->worldComm(0);
  const auto status = f.agent->status(comm);
  ASSERT_EQ(status.state, QosRequestState::kGranted);
  ASSERT_EQ(status.reservations.size(), 2u);  // two peers
  for (const auto& handle : status.reservations) {
    EXPECT_NEAR(handle->request().amount, 3000e3 * 1.06, 1.0);
  }
  // No rules leaked from the superseded requests.
  EXPECT_EQ(f.router->interfaces()[0]->ingressPolicy().ruleCount(), 2u);
  EXPECT_NEAR(f.managers[0]->slots().usedAt(f.sim.now()), 2 * 3000e3 * 1.06,
              10.0);
}

TEST(MultipartyQosTest, PartialCapacityDeniesAtomically) {
  TriFixture f;  // each edge has 40 Mb/s premium capacity
  QosAttribute attr;
  attr.qosclass = QosClass::kPremium;
  attr.bandwidth_kbps = 25'000.0;  // 2 peers x 26.5 Mb/s = 53 > 40
  QosRequestState state = QosRequestState::kNone;
  f.world->launch([&](mpi::Comm& comm) -> Task<> {
    if (comm.rank() == 0) {
      comm.attrPut(f.agent->keyval(), &attr);
      co_await f.agent->awaitSettled(comm);
      state = f.agent->status(comm).state;
    }
    co_return;
  });
  f.sim.runFor(Duration::seconds(10));
  EXPECT_EQ(state, QosRequestState::kDenied);
  // All-or-nothing: the first peer's reservation was rolled back.
  EXPECT_EQ(f.router->interfaces()[0]->ingressPolicy().ruleCount(), 0u);
  EXPECT_DOUBLE_EQ(f.managers[0]->slots().usedAt(f.sim.now()), 0.0);
}

}  // namespace
}  // namespace mgq::gq
