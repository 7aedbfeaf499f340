// HeartbeatMonitor: phi-accrual suspicion over probe history, one down
// event per outage, recovery, and the suspend/resume crash protocol.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gara/flaky_resource_manager.hpp"
#include "gara/gara.hpp"
#include "obs/metrics.hpp"
#include "resil/heartbeat.hpp"
#include "sim/simulator.hpp"

namespace mgq::resil {
namespace {

using sim::Duration;
using sim::TimePoint;

class RecordingManager : public gara::ResourceManager {
 public:
  explicit RecordingManager(double capacity) : ResourceManager(capacity) {}
  std::string validate(const gara::ReservationRequest&) const override {
    return {};
  }
  void enforce(gara::Reservation&) override {}
  void release(gara::Reservation&) override {}
};

TEST(HeartbeatMonitorTest, HealthyPeerNeverSuspected) {
  sim::Simulator sim;
  HeartbeatMonitor monitor(sim);
  monitor.watch("peer", [] { return true; }, nullptr);
  sim.runUntil(TimePoint::fromSeconds(30));
  EXPECT_FALSE(monitor.suspected("peer"));
  EXPECT_LT(monitor.phi("peer"), HeartbeatMonitor::kPhiThreshold);
}

TEST(HeartbeatMonitorTest, SilenceRaisesPhiAndFiresDownOnce) {
  sim::Simulator sim;
  obs::MetricsRegistry metrics;
  HeartbeatMonitor monitor(sim);
  monitor.attachObservability(&metrics, nullptr);
  bool alive = true;
  std::vector<double> down_phis;
  monitor.watch(
      "peer", [&alive] { return alive; },
      [&down_phis](const std::string&, double phi) {
        down_phis.push_back(phi);
      });
  sim.runUntil(TimePoint::fromSeconds(5));
  ASSERT_FALSE(monitor.suspected("peer"));

  alive = false;
  sim.runUntil(TimePoint::fromSeconds(15));
  EXPECT_TRUE(monitor.suspected("peer"));
  // One outage, one down event — not one per tick.
  ASSERT_EQ(down_phis.size(), 1u);
  EXPECT_GT(down_phis[0], HeartbeatMonitor::kPhiThreshold);
  EXPECT_EQ(metrics.counter("resil.heartbeat.manager_down").value(), 1.0);
}

TEST(HeartbeatMonitorTest, RecoveryClearsSuspicionAndCanReFire) {
  sim::Simulator sim;
  obs::MetricsRegistry metrics;
  HeartbeatMonitor monitor(sim);
  monitor.attachObservability(&metrics, nullptr);
  bool alive = true;
  int downs = 0;
  monitor.watch(
      "peer", [&alive] { return alive; },
      [&downs](const std::string&, double) { ++downs; });
  sim.runUntil(TimePoint::fromSeconds(5));
  alive = false;
  sim.runUntil(TimePoint::fromSeconds(10));
  ASSERT_EQ(downs, 1);
  alive = true;
  sim.runUntil(TimePoint::fromSeconds(15));
  EXPECT_FALSE(monitor.suspected("peer"));
  EXPECT_EQ(metrics.counter("resil.heartbeat.recovered").value(), 1.0);
  // A second outage is detected independently.
  alive = false;
  sim.runUntil(TimePoint::fromSeconds(25));
  EXPECT_EQ(downs, 2);
}

TEST(HeartbeatMonitorTest, ResumeAfterSuspendDoesNotFalselySuspect) {
  sim::Simulator sim;
  HeartbeatMonitor monitor(sim);
  int downs = 0;
  monitor.watch(
      "peer", [] { return true; },
      [&downs](const std::string&, double) { ++downs; });
  sim.runUntil(TimePoint::fromSeconds(2));
  monitor.suspend();
  // A long monitor outage (our crash, not the peer's) must not count as
  // peer silence once we come back.
  sim.runUntil(TimePoint::fromSeconds(60));
  EXPECT_EQ(downs, 0);
  monitor.resume();
  sim.runUntil(TimePoint::fromSeconds(70));
  EXPECT_FALSE(monitor.suspected("peer"));
  EXPECT_EQ(downs, 0);
}

TEST(HeartbeatMonitorTest, ManagerHeartbeatsFailTheSuspectedManagersHandles) {
  sim::Simulator sim;
  gara::Gara gara(sim);

  // Two managers; only one goes dark. attach() probes reachable().
  RecordingManager base_a(1.0), base_b(1.0);
  gara::FlakyResourceManager flaky_a(base_a), flaky_b(base_b);
  gara.registerManager("a", flaky_a);
  gara.registerManager("b", flaky_b);

  gara::ReservationRequest request;
  request.amount = 0.25;
  auto on_a = gara.reserve("a", request);
  auto on_b = gara.reserve("b", request);
  ASSERT_TRUE(on_a && on_b);

  HeartbeatMonitor monitor(sim);
  attachManagerHeartbeats(monitor, gara);
  EXPECT_EQ(monitor.watchedCount(), 2u);

  sim.runUntil(TimePoint::fromSeconds(2));
  flaky_a.setOutage(true);  // reachable() now false, probes keep failing
  sim.runUntil(TimePoint::fromSeconds(10));

  EXPECT_TRUE(monitor.suspected("a"));
  EXPECT_FALSE(monitor.suspected("b"));
  EXPECT_EQ(on_a.handle->state(), gara::ReservationState::kFailed);
  EXPECT_NE(on_a.handle->failureReason().find("suspected down"),
            std::string::npos);
  // The healthy manager's reservation is untouched.
  EXPECT_EQ(on_b.handle->state(), gara::ReservationState::kActive);
}

}  // namespace
}  // namespace mgq::resil
