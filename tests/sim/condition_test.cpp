#include "sim/condition.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/channel.hpp"
#include "sim/simulator.hpp"

namespace mgq::sim {
namespace {

TEST(ConditionTest, NotifyOneWakesInFifoOrder) {
  Simulator sim;
  Condition cond(sim);
  std::vector<int> order;
  auto waiter = [](Condition& c, std::vector<int>& log, int id) -> Task<> {
    co_await c.wait();
    log.push_back(id);
  };
  sim.spawn(waiter(cond, order, 1));
  sim.spawn(waiter(cond, order, 2));
  sim.spawn(waiter(cond, order, 3));
  sim.runFor(Duration::millis(1));
  EXPECT_EQ(cond.waiterCount(), 3u);
  cond.notifyOne();
  sim.runFor(Duration::millis(1));
  EXPECT_EQ(order, (std::vector<int>{1}));
  cond.notifyAll();
  sim.runFor(Duration::millis(1));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(ConditionTest, NotifyWithNoWaitersIsNoop) {
  Simulator sim;
  Condition cond(sim);
  cond.notifyOne();
  cond.notifyAll();
  sim.run();
  EXPECT_EQ(cond.waiterCount(), 0u);
}

TEST(ConditionTest, AwaitUntilChecksPredicateOnEachNotify) {
  Simulator sim;
  Condition cond(sim);
  int value = 0;
  bool done = false;
  auto waiter = [](Condition& c, int& v, bool& flag) -> Task<> {
    co_await awaitUntil(c, [&v] { return v >= 3; });
    flag = true;
  };
  sim.spawn(waiter(cond, value, done));
  sim.runFor(Duration::millis(1));
  for (int i = 0; i < 3; ++i) {
    ++value;
    cond.notifyAll();
    sim.runFor(Duration::millis(1));
    EXPECT_EQ(done, i == 2);
  }
}

TEST(ConditionTest, PredicateTrueUpFrontDoesNotWait) {
  Simulator sim;
  Condition cond(sim);
  bool done = false;
  auto waiter = [](Condition& c, bool& flag) -> Task<> {
    co_await awaitUntil(c, [] { return true; });
    flag = true;
  };
  sim.spawn(waiter(cond, done));
  sim.run();
  EXPECT_TRUE(done);
}

TEST(ConditionTest, NotifyAllWakesEachWaiterOncePerGeneration) {
  // Pin the snapshot semantics: a coroutine that re-waits from inside its
  // (deferred) wakeup must not be woken again by the same notifyAll
  // generation.
  Simulator sim;
  Condition cond(sim);
  int first_wakes = 0;
  int second_wakes = 0;
  auto waiter = [](Condition& c, int& a, int& b) -> Task<> {
    co_await c.wait();
    ++a;
    co_await c.wait();  // re-wait within the wakeup's event
    ++b;
  };
  for (int i = 0; i < 3; ++i) sim.spawn(waiter(cond, first_wakes, second_wakes));
  sim.runFor(Duration::millis(1));
  ASSERT_EQ(cond.waiterCount(), 3u);

  cond.notifyAll();
  sim.runFor(Duration::millis(1));
  EXPECT_EQ(first_wakes, 3);
  EXPECT_EQ(second_wakes, 0);  // re-waiters parked, not re-woken
  EXPECT_EQ(cond.waiterCount(), 3u);

  cond.notifyAll();  // the next generation wakes them
  sim.runFor(Duration::millis(1));
  EXPECT_EQ(second_wakes, 3);
  EXPECT_EQ(cond.waiterCount(), 0u);
}

TEST(ConditionTest, PendingNotifyDiesWithDestroyedProcesses) {
  // A notify whose wakeup event is still in flight when the processes are
  // torn down must not resume a destroyed frame.
  Simulator sim;
  Condition cond(sim);
  bool woke = false;
  auto waiter = [](Condition& c, bool& flag) -> Task<> {
    co_await c.wait();
    flag = true;
  };
  sim.spawn(waiter(cond, woke));
  sim.runFor(Duration::millis(1));
  cond.notifyOne();        // wakeup event queued but not yet executed
  sim.destroyProcesses();  // frame destroyed; wakeup must be cancelled
  sim.run();
  EXPECT_FALSE(woke);
}

TEST(ChannelTest, PushThenPop) {
  Simulator sim;
  Channel<int> chan(sim);
  chan.push(1);
  chan.push(2);
  std::vector<int> got;
  auto proc = [](Channel<int>& c, std::vector<int>& out) -> Task<> {
    out.push_back(co_await c.pop());
    out.push_back(co_await c.pop());
  };
  sim.spawn(proc(chan, got));
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2}));
}

TEST(ChannelTest, PopBlocksUntilPush) {
  Simulator sim;
  Channel<int> chan(sim);
  double pop_time = -1;
  auto consumer = [](Simulator& s, Channel<int>& c, double& t) -> Task<> {
    (void)co_await c.pop();
    t = s.now().toSeconds();
  };
  auto producer = [](Simulator& s, Channel<int>& c) -> Task<> {
    co_await s.delay(Duration::seconds(2));
    c.push(99);
  };
  sim.spawn(consumer(sim, chan, pop_time));
  sim.spawn(producer(sim, chan));
  sim.run();
  EXPECT_DOUBLE_EQ(pop_time, 2.0);
}

TEST(ChannelTest, MultipleConsumersEachGetOneItem) {
  Simulator sim;
  Channel<int> chan(sim);
  std::vector<int> got;
  auto consumer = [](Channel<int>& c, std::vector<int>& out) -> Task<> {
    out.push_back(co_await c.pop());
  };
  sim.spawn(consumer(chan, got));
  sim.spawn(consumer(chan, got));
  sim.runFor(Duration::millis(1));
  chan.push(10);
  chan.push(20);
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{10, 20}));
}

}  // namespace
}  // namespace mgq::sim
