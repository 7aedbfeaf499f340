#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <coroutine>
#include <vector>

namespace mgq::sim {
namespace {

TEST(SimulatorTest, ClockAdvancesToEventTimes) {
  Simulator sim;
  std::vector<double> seen;
  sim.schedule(Duration::seconds(1.0), [&] { seen.push_back(sim.now().toSeconds()); });
  sim.schedule(Duration::seconds(0.5), [&] { seen.push_back(sim.now().toSeconds()); });
  sim.run();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_DOUBLE_EQ(seen[0], 0.5);
  EXPECT_DOUBLE_EQ(seen[1], 1.0);
}

TEST(SimulatorTest, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int count = 0;
  std::function<void()> tick = [&] {
    ++count;
    if (count < 5) sim.schedule(Duration::millis(10), tick);
  };
  sim.schedule(Duration::millis(10), tick);
  sim.run();
  EXPECT_EQ(count, 5);
  EXPECT_DOUBLE_EQ(sim.now().toSeconds(), 0.05);
}

TEST(SimulatorTest, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.schedule(Duration::seconds(1), [&] { ++fired; });
  sim.schedule(Duration::seconds(3), [&] { ++fired; });
  sim.runUntil(TimePoint::fromSeconds(2));
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now().toSeconds(), 2.0);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, RunUntilBoundaryEventScheduledFromCallback) {
  // Regression for the runUntil monotonicity check: a callback firing
  // before the boundary schedules a new event exactly AT the boundary.
  // Both events must execute and the clock must land exactly on t.
  Simulator sim;
  std::vector<double> fired_at;
  sim.schedule(Duration::seconds(1), [&] {
    fired_at.push_back(sim.now().toSeconds());
    sim.scheduleAt(TimePoint::fromSeconds(2),
                   [&] { fired_at.push_back(sim.now().toSeconds()); });
  });
  sim.runUntil(TimePoint::fromSeconds(2));
  ASSERT_EQ(fired_at.size(), 2u);
  EXPECT_DOUBLE_EQ(fired_at[0], 1.0);
  EXPECT_DOUBLE_EQ(fired_at[1], 2.0);
  EXPECT_DOUBLE_EQ(sim.now().toSeconds(), 2.0);
}

TEST(SimulatorTest, RunUntilCurrentTimeExecutesDueEvents) {
  // runUntil(now) with events due exactly now: no backward clock motion,
  // events at the boundary run.
  Simulator sim;
  sim.runFor(Duration::seconds(1));
  int fired = 0;
  sim.scheduleAt(TimePoint::fromSeconds(1), [&] { ++fired; });
  sim.runUntil(TimePoint::fromSeconds(1));
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now().toSeconds(), 1.0);
}

TEST(SimulatorTest, RunForIsRelative) {
  Simulator sim;
  sim.runFor(Duration::seconds(1));
  sim.runFor(Duration::seconds(1));
  EXPECT_DOUBLE_EQ(sim.now().toSeconds(), 2.0);
}

TEST(SimulatorTest, StopHaltsProcessing) {
  Simulator sim;
  int fired = 0;
  sim.schedule(Duration::seconds(1), [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule(Duration::seconds(2), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const auto id = sim.schedule(Duration::seconds(1), [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(SimulatorTest, EventsExecutedCounter) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule(Duration::millis(i), [] {});
  sim.run();
  EXPECT_EQ(sim.eventsExecuted(), 7u);
}

TEST(SimulatorTest, SpawnRunsProcessAtCurrentTime) {
  Simulator sim;
  bool ran = false;
  auto proc = [](Simulator& s, bool& flag) -> Task<> {
    co_await s.delay(Duration::seconds(2));
    flag = true;
  };
  sim.spawn(proc(sim, ran));
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_DOUBLE_EQ(sim.now().toSeconds(), 2.0);
}

TEST(SimulatorTest, DelayZeroDoesNotSuspendForever) {
  Simulator sim;
  int steps = 0;
  auto proc = [](Simulator& s, int& n) -> Task<> {
    co_await s.delay(Duration::zero());
    ++n;
    co_await s.delay(Duration::nanos(-5));  // negative treated as ready
    ++n;
  };
  sim.spawn(proc(sim, steps));
  sim.run();
  EXPECT_EQ(steps, 2);
}

TEST(SimulatorTest, DelayUntilPastIsNoop) {
  Simulator sim;
  sim.runFor(Duration::seconds(5));
  bool done = false;
  auto proc = [](Simulator& s, bool& flag) -> Task<> {
    co_await s.delayUntil(TimePoint::fromSeconds(1));  // already past
    flag = true;
  };
  sim.spawn(proc(sim, done));
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_DOUBLE_EQ(sim.now().toSeconds(), 5.0);
}

TEST(SimulatorTest, MultipleProcessesInterleaveDeterministically) {
  Simulator sim;
  std::vector<int> order;
  auto proc = [](Simulator& s, std::vector<int>& log, int id) -> Task<> {
    for (int i = 0; i < 3; ++i) {
      co_await s.delay(Duration::millis(10));
      log.push_back(id);
    }
  };
  sim.spawn(proc(sim, order, 1));
  sim.spawn(proc(sim, order, 2));
  sim.run();
  // Spawn order is preserved at every 10ms boundary.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 1, 2, 1, 2}));
}

TEST(SimulatorTest, DestroyProcessesCancelsInFlightDelays) {
  // Regression: a delay awaiter's resume event must not outlive its
  // process. Destroying processes with a timer in flight and then running
  // the simulator must neither resume the destroyed frame (ASan would
  // catch the dangling handle) nor advance the clock to the timer.
  Simulator sim;
  bool resumed = false;
  auto proc = [](Simulator& s, bool& flag) -> Task<> {
    co_await s.delay(Duration::seconds(10));
    flag = true;
  };
  sim.spawn(proc(sim, resumed));
  sim.runFor(Duration::seconds(1));
  sim.destroyProcesses();
  sim.run();
  EXPECT_FALSE(resumed);
  EXPECT_DOUBLE_EQ(sim.now().toSeconds(), 1.0);
}

TEST(SimulatorTest, DestroyProcessesCancelsPendingSpawnKickoff) {
  // A process spawned but never stepped has its kickoff resume queued;
  // teardown must cancel that too.
  Simulator sim;
  bool started = false;
  auto proc = [](bool& flag) -> Task<> {
    flag = true;
    co_return;
  };
  sim.spawn(proc(started));
  sim.destroyProcesses();
  sim.run();
  EXPECT_FALSE(started);
}

TEST(SimulatorTest, DestroyProcessesKeepsPlainScheduledCallbacks) {
  // Only coroutine-resume events die with the processes; ordinary
  // scheduled callbacks (timers owned by non-process objects) survive.
  Simulator sim;
  bool fired = false;
  auto proc = [](Simulator& s) -> Task<> {
    co_await s.delay(Duration::seconds(10));
  };
  sim.spawn(proc(sim));
  sim.schedule(Duration::seconds(2), [&fired] { fired = true; });
  sim.destroyProcesses();
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_DOUBLE_EQ(sim.now().toSeconds(), 2.0);
}

TEST(SimulatorTest, DetachedProcessExceptionPropagatesFromRun) {
  Simulator sim;
  auto proc = [](Simulator& s) -> Task<> {
    co_await s.delay(Duration::millis(1));
    throw std::runtime_error("boom");
  };
  sim.spawn(proc(sim));
  EXPECT_THROW(sim.run(), std::runtime_error);
}

// An event before the current time would run the clock backwards. Every
// build type aborts on one at the call that tries to queue it, NDEBUG
// included. (run() and runUntil() keep the same check on every popped
// event, but with these entry points guarded no public call can queue a
// past event for them to find.)
TEST(SimulatorDeathTest, ScheduleWithNegativeDelayAborts) {
  Simulator sim;
  sim.runFor(Duration::seconds(1));
  EXPECT_DEATH(sim.schedule(Duration::nanos(-1), [] {}),
               "Simulator::schedule: event before the current time");
}

TEST(SimulatorDeathTest, ScheduleAtInThePastAborts) {
  Simulator sim;
  sim.runFor(Duration::seconds(1));
  EXPECT_DEATH(sim.scheduleAt(TimePoint::fromSeconds(0.5), [] {}),
               "Simulator::scheduleAt: event before the current time");
}

TEST(SimulatorDeathTest, ScheduleResumeWithNegativeDelayAborts) {
  Simulator sim;
  sim.runFor(Duration::seconds(1));
  EXPECT_DEATH(sim.scheduleResume(Duration::nanos(-1), std::noop_coroutine()),
               "Simulator::scheduleResume: event before the current time");
}

TEST(SimulatorDeathTest, RescheduleWithNegativeDelayAborts) {
  Simulator sim;
  sim.runFor(Duration::seconds(1));
  const EventId id = sim.schedule(Duration::seconds(1), [] {});
  EXPECT_DEATH(sim.reschedule(id, Duration::nanos(-1)),
               "Simulator::reschedule: event before the current time");
}

TEST(SimulatorDeathTest, ZeroDelayAndTheCurrentTimeAreAccepted) {
  Simulator sim;
  sim.runFor(Duration::seconds(1));
  int fired = 0;
  sim.schedule(Duration::zero(), [&] { ++fired; });
  sim.scheduleAt(sim.now(), [&] { ++fired; });
  const EventId id = sim.schedule(Duration::seconds(1), [&] { ++fired; });
  EXPECT_NE(sim.reschedule(id, Duration::zero()), 0u);
  sim.run();
  EXPECT_EQ(fired, 3);
  EXPECT_DOUBLE_EQ(sim.now().toSeconds(), 1.0);
}

}  // namespace
}  // namespace mgq::sim
