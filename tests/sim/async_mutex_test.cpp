#include "sim/async_mutex.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.hpp"

namespace mgq::sim {
namespace {

TEST(AsyncMutexTest, UncontendedLockIsImmediate) {
  Simulator sim;
  AsyncMutex mutex(sim);
  bool done = false;
  auto proc = [](AsyncMutex& m, bool& flag) -> Task<> {
    co_await m.lock();
    flag = true;
    m.unlock();
  };
  sim.spawn(proc(mutex, done));
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_FALSE(mutex.locked());
}

TEST(AsyncMutexTest, MutualExclusion) {
  Simulator sim;
  AsyncMutex mutex(sim);
  int inside = 0;
  int max_inside = 0;
  auto proc = [](Simulator& s, AsyncMutex& m, int& in, int& peak) -> Task<> {
    for (int i = 0; i < 5; ++i) {
      co_await m.lock();
      ++in;
      peak = std::max(peak, in);
      co_await s.delay(Duration::millis(3));
      --in;
      m.unlock();
    }
  };
  for (int p = 0; p < 4; ++p) sim.spawn(proc(sim, mutex, inside, max_inside));
  sim.run();
  EXPECT_EQ(max_inside, 1);
  EXPECT_EQ(inside, 0);
}

TEST(AsyncMutexTest, FifoHandoff) {
  Simulator sim;
  AsyncMutex mutex(sim);
  std::vector<int> order;
  auto holder = [](Simulator& s, AsyncMutex& m) -> Task<> {
    co_await m.lock();
    co_await s.delay(Duration::millis(10));
    m.unlock();
  };
  auto waiter = [](AsyncMutex& m, std::vector<int>& log, int id) -> Task<> {
    co_await m.lock();
    log.push_back(id);
    m.unlock();
  };
  sim.spawn(holder(sim, mutex));
  sim.runFor(Duration::millis(1));
  sim.spawn(waiter(mutex, order, 1));
  sim.runFor(Duration::millis(1));
  sim.spawn(waiter(mutex, order, 2));
  sim.runFor(Duration::millis(1));
  sim.spawn(waiter(mutex, order, 3));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

}  // namespace
}  // namespace mgq::sim
