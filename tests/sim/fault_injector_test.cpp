// Fault injector: plan execution, due events firing at once, and graceful
// handling of unknown targets. Seeded plan generation and byte-identical
// replay are the chaos generator's and runner's tests.
#include <gtest/gtest.h>

#include "sim/fault_injector.hpp"

namespace mgq::sim {
namespace {

struct Counts {
  int downs = 0;
  int ups = 0;
  int loss_starts = 0;
  int loss_stops = 0;
  double last_p = -1.0;
};

FaultTarget countingTarget(Counts& counts) {
  FaultTarget t;
  t.down = [&counts] { ++counts.downs; };
  t.up = [&counts] { ++counts.ups; };
  t.loss_start = [&counts](double p) {
    ++counts.loss_starts;
    counts.last_p = p;
  };
  t.loss_stop = [&counts] { ++counts.loss_stops; };
  return t;
}

TEST(FaultInjectorTest, PlanFiresActionsAtScheduledTimes) {
  Simulator sim;
  FaultInjector injector(sim);
  Counts counts;
  injector.registerTarget("link", countingTarget(counts));
  injector.schedulePlan({
      {TimePoint::fromSeconds(1), "link", FaultAction::kDown, 0.0},
      {TimePoint::fromSeconds(2), "link", FaultAction::kUp, 0.0},
      {TimePoint::fromSeconds(3), "link", FaultAction::kLossStart, 0.25},
      {TimePoint::fromSeconds(4), "link", FaultAction::kLossStop, 0.0},
  });
  sim.runUntil(TimePoint::fromSeconds(1.5));
  EXPECT_EQ(counts.downs, 1);
  EXPECT_EQ(counts.ups, 0);
  sim.run();
  EXPECT_EQ(counts.downs, 1);
  EXPECT_EQ(counts.ups, 1);
  EXPECT_EQ(counts.loss_starts, 1);
  EXPECT_DOUBLE_EQ(counts.last_p, 0.25);
  EXPECT_EQ(counts.loss_stops, 1);
  EXPECT_EQ(injector.firedCount(), 4u);
  ASSERT_EQ(injector.log().size(), 4u);
  EXPECT_EQ(injector.log()[0], "t=1.000000s link down");
  EXPECT_EQ(injector.log()[2], "t=3.000000s link loss-start p=0.2500");
}

TEST(FaultInjectorTest, ScheduleFlapIsOneDownUpEpisode) {
  Simulator sim;
  FaultInjector injector(sim);
  Counts counts;
  injector.registerTarget("link", countingTarget(counts));
  injector.schedule({TimePoint::fromSeconds(5), "link", FaultAction::kDown});
  injector.schedule({TimePoint::fromSeconds(7), "link", FaultAction::kUp});
  sim.run();
  EXPECT_EQ(counts.downs, 1);
  EXPECT_EQ(counts.ups, 1);
  EXPECT_EQ(injector.logText(),
            "t=5.000000s link down\nt=7.000000s link up\n");
}

TEST(FaultInjectorTest, DueEventsFireWithoutASimulatorEvent) {
  Simulator sim;
  FaultInjector injector(sim);
  Counts counts;
  injector.registerTarget("wire", countingTarget(counts));
  injector.schedulePlan({
      {TimePoint::zero(), "wire", FaultAction::kLossStart, 0.005},
      {TimePoint::fromSeconds(2), "wire", FaultAction::kLossStop},
  });
  EXPECT_EQ(counts.loss_starts, 1) << "a t=0 entry fires while scheduling";
  EXPECT_EQ(counts.loss_stops, 0);
  sim.run();
  EXPECT_EQ(counts.loss_stops, 1);
  EXPECT_EQ(sim.eventsExecuted(), 1u);
  EXPECT_EQ(injector.logText(),
            "t=0.000000s wire loss-start p=0.0050\n"
            "t=2.000000s wire loss-stop\n");
}

TEST(FaultInjectorTest, UnregisteredTargetIsLoggedNotFatal) {
  Simulator sim;
  FaultInjector injector(sim);
  injector.fire({TimePoint::zero(), "ghost", FaultAction::kDown, 0.0});
  ASSERT_EQ(injector.log().size(), 1u);
  EXPECT_EQ(injector.log()[0], "t=0.000000s ghost down (unregistered)");
}

}  // namespace
}  // namespace mgq::sim
