#include "gara/bandwidth_broker.hpp"

#include <gtest/gtest.h>

#include "net/network.hpp"

namespace mgq::gara {
namespace {

/// A Y-shaped domain: two edges (A, B) feeding a shared core link C.
/// Paths: "via-A" = edge-A + core, "via-B" = edge-B + core.
struct DomainFixture {
  DomainFixture()
      : network(sim),
        host_a(&network.addHost("a")),
        host_b(&network.addHost("b")),
        router(&network.addRouter("edge")),
        gara(sim) {
    network.connect(*host_a, *router, net::LinkConfig{});
    network.connect(*host_b, *router, net::LinkConfig{});
    network.computeRoutes();
    edge_a = std::make_unique<NetworkResourceManager>(
        100e6, *router->interfaces()[0]);
    edge_b = std::make_unique<NetworkResourceManager>(
        100e6, *router->interfaces()[1]);
    core = std::make_unique<LinkAccountingManager>(40e6);
    gara.registerManager("edge-a", *edge_a);
    gara.registerManager("edge-b", *edge_b);
    gara.registerManager("core", *core);
    broker = std::make_unique<BandwidthBroker>(gara);
    broker->definePath("via-a", {"edge-a", "core"});
    broker->definePath("via-b", {"edge-b", "core"});
  }

  ReservationRequest request(double bps) {
    ReservationRequest r;
    r.start = sim.now();
    r.amount = bps;
    return r;
  }

  sim::Simulator sim;
  net::Network network;
  net::Host* host_a;
  net::Host* host_b;
  net::Router* router;
  Gara gara;
  std::unique_ptr<NetworkResourceManager> edge_a;
  std::unique_ptr<NetworkResourceManager> edge_b;
  std::unique_ptr<LinkAccountingManager> core;
  std::unique_ptr<BandwidthBroker> broker;
};

TEST(BandwidthBrokerTest, PathReservationClaimsEveryLink) {
  DomainFixture f;
  auto path = f.broker->requestPath("via-a", f.request(10e6));
  ASSERT_TRUE(path) << path.error;
  EXPECT_EQ(path.handles.size(), 2u);
  EXPECT_DOUBLE_EQ(f.edge_a->slots().usedAt(f.sim.now()), 10e6);
  EXPECT_DOUBLE_EQ(f.core->slots().usedAt(f.sim.now()), 10e6);
  // The enforcing edge installed exactly one rule; the accounting link
  // installed none.
  EXPECT_EQ(f.router->interfaces()[0]->ingressPolicy().ruleCount(), 1u);
}

TEST(BandwidthBrokerTest, SharedCoreLinkArbitratesBetweenEdges) {
  DomainFixture f;
  // Path A takes 30 of the 40 Mb/s core.
  auto a = f.broker->requestPath("via-a", f.request(30e6));
  ASSERT_TRUE(a);
  // Path B has a free edge but the shared core is nearly full.
  auto b = f.broker->requestPath("via-b", f.request(20e6));
  EXPECT_FALSE(b);
  EXPECT_NE(b.error.find("core"), std::string::npos);
  // Nothing leaked on edge B by the failed co-reservation.
  EXPECT_DOUBLE_EQ(f.edge_b->slots().usedAt(f.sim.now()), 0.0);
  // A smaller request fits.
  auto b2 = f.broker->requestPath("via-b", f.request(10e6));
  EXPECT_TRUE(b2) << b2.error;
}

TEST(BandwidthBrokerTest, CancelFreesTheWholePath) {
  DomainFixture f;
  auto a = f.broker->requestPath("via-a", f.request(40e6));
  ASSERT_TRUE(a);
  EXPECT_FALSE(f.broker->requestPath("via-b", f.request(10e6)));
  for (const auto& leg : a.handles) f.gara.cancel(leg);
  EXPECT_DOUBLE_EQ(f.core->slots().usedAt(f.sim.now()), 0.0);
  EXPECT_TRUE(f.broker->requestPath("via-b", f.request(10e6)));
}

TEST(BandwidthBrokerTest, ModifyGrowsAllLegsOrNone) {
  DomainFixture f;
  auto a = f.broker->requestPath("via-a", f.request(10e6));
  ASSERT_TRUE(a);
  auto b = f.broker->requestPath("via-b", f.request(25e6));
  ASSERT_TRUE(b);
  // Growing A to 20 Mb/s would oversubscribe the core (20+25 > 40).
  EXPECT_FALSE(f.broker->modify(a, 20e6));
  EXPECT_DOUBLE_EQ(f.core->slots().usedAt(f.sim.now()), 35e6);  // unchanged
  // Growing to 15 fits everywhere.
  EXPECT_TRUE(f.broker->modify(a, 15e6));
  EXPECT_DOUBLE_EQ(f.core->slots().usedAt(f.sim.now()), 40e6);
}

TEST(BandwidthBrokerTest, UnknownPathRejected) {
  DomainFixture f;
  auto outcome = f.broker->requestPath("nope", f.request(1e6));
  EXPECT_FALSE(outcome);
  EXPECT_NE(outcome.error.find("unknown path"), std::string::npos);
}

TEST(BandwidthBrokerTest, PathNamesListed) {
  DomainFixture f;
  const auto names = f.broker->pathNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_TRUE(f.broker->hasPath("via-a"));
  EXPECT_TRUE(f.broker->hasPath("via-b"));
  EXPECT_FALSE(f.broker->hasPath("via-c"));
}

TEST(BandwidthBrokerTest, MidPathModifyRefusalRestoresEarlierLegs) {
  // Three-leg path with the bottleneck in the middle: the forward pass
  // grows edge-a, the narrow middle leg refuses, and the already-grown
  // earlier leg must be rolled back to its original amount.
  DomainFixture f;
  LinkAccountingManager narrow(11e6);
  f.gara.registerManager("narrow", narrow);
  f.broker->definePath("pinched", {"edge-a", "narrow", "core"});
  auto path = f.broker->requestPath("pinched", f.request(10e6));
  ASSERT_TRUE(path) << path.error;

  EXPECT_FALSE(f.broker->modify(path, 12e6));  // 12 > 11 on the middle leg
  ASSERT_EQ(path.handles.size(), 3u);
  for (const auto& leg : path.handles) {
    EXPECT_EQ(leg->state(), ReservationState::kActive);
    EXPECT_DOUBLE_EQ(leg->request().amount, 10e6);
  }
  EXPECT_DOUBLE_EQ(f.edge_a->slots().usedAt(f.sim.now()), 10e6);
  EXPECT_DOUBLE_EQ(narrow.slots().usedAt(f.sim.now()), 10e6);
  EXPECT_DOUBLE_EQ(f.core->slots().usedAt(f.sim.now()), 10e6);
  // The path is still modifiable afterwards — nothing was failed.
  EXPECT_TRUE(f.broker->modify(path, 11e6));
}

/// Accounting manager with a rationable validate budget: once spent,
/// every validate refuses — including the broker's rollback restore,
/// which is how the rollback-failure path is reached deterministically.
class RefusingManager : public ResourceManager {
 public:
  explicit RefusingManager(double capacity) : ResourceManager(capacity) {}
  void allowValidates(int n) { validates_remaining_ = n; }

  std::string validate(const ReservationRequest& request) const override {
    if (request.amount <= 0.0) return "reservation needs amount > 0";
    if (validates_remaining_ == 0) return "validation budget exhausted";
    if (validates_remaining_ > 0) --validates_remaining_;
    return {};
  }
  void enforce(Reservation&) override {}
  void release(Reservation&) override {}

 private:
  mutable int validates_remaining_ = -1;  // -1 = unlimited
};

TEST(BandwidthBrokerTest, ModifyRollbackFailureFailsTheLegLoudly) {
  // The documented rollback-failure contract (bandwidth_broker.cpp): if
  // restoring an already-grown leg fails, that leg no longer verifiably
  // holds its capacity, so it must be failed with an explicit reason
  // rather than left silently inconsistent.
  DomainFixture f;
  RefusingManager flaky(100e6);
  LinkAccountingManager bottleneck(11e6);
  f.gara.registerManager("flaky", flaky);
  f.gara.registerManager("bottleneck", bottleneck);
  f.broker->definePath("frail", {"flaky", "bottleneck"});
  auto path = f.broker->requestPath("frail", f.request(10e6));
  ASSERT_TRUE(path) << path.error;

  // One validate left: the forward grow of the flaky leg consumes it, the
  // bottleneck then refuses 12 > 11, and the rollback restore is denied.
  flaky.allowValidates(1);
  EXPECT_FALSE(f.broker->modify(path, 12e6));

  ASSERT_EQ(path.handles.size(), 2u);
  EXPECT_EQ(path.handles[0]->state(), ReservationState::kFailed);
  EXPECT_EQ(path.handles[0]->failureReason(), "path modify rollback failed");
  // Failing the leg released its slot: nothing is silently held.
  EXPECT_DOUBLE_EQ(flaky.slots().usedAt(f.sim.now()), 0.0);
  // The refusing leg was never grown, so it is untouched and active.
  EXPECT_EQ(path.handles[1]->state(), ReservationState::kActive);
  EXPECT_DOUBLE_EQ(path.handles[1]->request().amount, 10e6);
}

TEST(BandwidthBrokerTest, AdvancePathReservationsShareTimeline) {
  DomainFixture f;
  auto req1 = f.request(30e6);
  req1.start = sim::TimePoint::fromSeconds(10);
  req1.duration = sim::Duration::seconds(10);
  ASSERT_TRUE(f.broker->requestPath("via-a", req1));

  auto req2 = f.request(30e6);
  req2.start = sim::TimePoint::fromSeconds(15);
  req2.duration = sim::Duration::seconds(10);
  EXPECT_FALSE(f.broker->requestPath("via-b", req2));  // overlaps on core
  req2.start = sim::TimePoint::fromSeconds(20);
  EXPECT_TRUE(f.broker->requestPath("via-b", req2));
}

}  // namespace
}  // namespace mgq::gara
