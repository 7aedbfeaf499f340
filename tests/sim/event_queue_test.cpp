#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <coroutine>
#include <functional>
#include <memory>
#include <vector>

namespace mgq::sim {
namespace {

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(TimePoint::fromSeconds(3), [&] { order.push_back(3); });
  q.push(TimePoint::fromSeconds(1), [&] { order.push_back(1); });
  q.push(TimePoint::fromSeconds(2), [&] { order.push_back(2); });
  while (!q.empty()) q.pop()();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, SameTimestampIsFifo) {
  EventQueue q;
  std::vector<int> order;
  const auto t = TimePoint::fromSeconds(1);
  for (int i = 0; i < 10; ++i) {
    q.push(t, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop()();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueueTest, ReportsPopTime) {
  EventQueue q;
  q.push(TimePoint::fromSeconds(5), [] {});
  TimePoint at;
  q.pop(&at);
  EXPECT_EQ(at, TimePoint::fromSeconds(5));
}

TEST(EventQueueTest, NextTimeSkipsCancelled) {
  EventQueue q;
  const auto id = q.push(TimePoint::fromSeconds(1), [] {});
  q.push(TimePoint::fromSeconds(2), [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_EQ(q.nextTime(), TimePoint::fromSeconds(2));
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueueTest, CancelledEventDoesNotRun) {
  EventQueue q;
  bool ran = false;
  const auto id = q.push(TimePoint::fromSeconds(1), [&] { ran = true; });
  q.push(TimePoint::fromSeconds(2), [] {});
  EXPECT_TRUE(q.cancel(id));
  while (!q.empty()) q.pop()();
  EXPECT_FALSE(ran);
}

TEST(EventQueueTest, CancelTwiceFails) {
  EventQueue q;
  const auto id = q.push(TimePoint::fromSeconds(1), [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueueTest, CancelAfterFireFails) {
  EventQueue q;
  const auto id = q.push(TimePoint::fromSeconds(1), [] {});
  q.pop()();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueueTest, CancelUnknownIdFails) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(12345));
  EXPECT_FALSE(q.cancel(0));
}

TEST(EventQueueTest, SizeExcludesCancelled) {
  EventQueue q;
  const auto a = q.push(TimePoint::fromSeconds(1), [] {});
  q.push(TimePoint::fromSeconds(2), [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_FALSE(q.empty());
}

TEST(EventQueueTest, AllCancelledMeansEmpty) {
  EventQueue q;
  const auto a = q.push(TimePoint::fromSeconds(1), [] {});
  q.cancel(a);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, ClearDropsEverything) {
  EventQueue q;
  q.push(TimePoint::fromSeconds(1), [] {});
  q.push(TimePoint::fromSeconds(2), [] {});
  q.clear();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, ManyRandomOrderInsertionsPopSorted) {
  EventQueue q;
  // Deterministic pseudo-random insert order.
  std::uint64_t x = 88172645463325252ULL;
  std::vector<std::int64_t> times;
  for (int i = 0; i < 1000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    times.push_back(static_cast<std::int64_t>(x % 10'000));
  }
  for (auto t : times) {
    q.push(TimePoint::zero() + Duration::nanos(t), [] {});
  }
  TimePoint prev = TimePoint::zero();
  while (!q.empty()) {
    TimePoint at;
    q.pop(&at);
    EXPECT_GE(at, prev);
    prev = at;
  }
}

TEST(EventQueueTest, CancelReleasesCapturedStateImmediately) {
  // Regression: a cancelled entry's callback (and everything it captured
  // — sockets, shared_ptrs) used to stay alive in the heap until the
  // entry surfaced, extending object lifetimes unpredictably.
  EventQueue q;
  auto sentinel = std::make_shared<int>(7);
  const auto id = q.push(TimePoint::fromSeconds(1), [sentinel] {});
  q.push(TimePoint::fromSeconds(2), [] {});
  EXPECT_EQ(sentinel.use_count(), 2);
  EXPECT_TRUE(q.cancel(id));
  // Destroyed at cancel time, and the entry left the heap with it.
  EXPECT_EQ(sentinel.use_count(), 1);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.heapEntries(), q.size());
}

TEST(EventQueueTest, CancelledCaptureMayReenterTheQueue) {
  // A capture's destructor (a socket's last reference, say) may cancel
  // and push other events while cancel() is running.
  struct OnDestroy {
    std::function<void()> fn;
    ~OnDestroy() { fn(); }
  };
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 12; ++i) {
    ids.push_back(q.push(TimePoint::fromSeconds(1 + i),
                         [&order, i] { order.push_back(i); }));
  }
  auto hook = std::make_shared<OnDestroy>();
  hook->fn = [&] {
    EXPECT_TRUE(q.cancel(ids[0]));
    EXPECT_TRUE(q.cancel(ids[11]));
    q.push(TimePoint::fromSeconds(0.5), [&order] { order.push_back(100); });
  };
  const auto id = q.push(TimePoint::fromSeconds(6.5), [h = std::move(hook)] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_EQ(q.size(), 11u);
  EXPECT_EQ(q.heapEntries(), q.size());
  while (!q.empty()) q.pop()();
  EXPECT_EQ(order, (std::vector<int>{100, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}));
}

TEST(EventQueueTest, ClearReleasesCapturedState) {
  EventQueue q;
  auto sentinel = std::make_shared<int>(7);
  q.push(TimePoint::fromSeconds(1), [sentinel] {});
  q.clear();
  EXPECT_EQ(sentinel.use_count(), 1);
}

TEST(EventQueueTest, IdsAreNotResurrectedBySlotReuse) {
  EventQueue q;
  const auto a = q.push(TimePoint::fromSeconds(1), [] {});
  q.pop()();  // frees a's slot
  bool b_ran = false;
  const auto b = q.push(TimePoint::fromSeconds(2), [&] { b_ran = true; });
  EXPECT_NE(a, b);
  // Cancelling the stale id must not touch the slot's new occupant.
  EXPECT_FALSE(q.cancel(a));
  q.pop()();
  EXPECT_TRUE(b_ran);
}

TEST(EventQueueTest, ClearInvalidatesOutstandingIds) {
  EventQueue q;
  const auto a = q.push(TimePoint::fromSeconds(1), [] {});
  q.clear();
  const auto b = q.push(TimePoint::fromSeconds(1), [] {});
  EXPECT_FALSE(q.cancel(a));
  EXPECT_TRUE(q.cancel(b));
}

TEST(EventQueueTest, RescheduleRetargetsPendingEvent) {
  EventQueue q;
  std::vector<int> order;
  const auto a = q.push(TimePoint::fromSeconds(1), [&] { order.push_back(1); });
  q.push(TimePoint::fromSeconds(2), [&] { order.push_back(2); });
  const auto moved = q.reschedule(a, TimePoint::fromSeconds(3));
  EXPECT_NE(moved, 0u);
  EXPECT_NE(moved, a);
  EXPECT_EQ(q.size(), 2u);
  std::vector<TimePoint> times;
  while (!q.empty()) {
    TimePoint at;
    q.pop(&at)();
    times.push_back(at);
  }
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
  EXPECT_EQ(times.back(), TimePoint::fromSeconds(3));
}

TEST(EventQueueTest, RescheduleInvalidatesOldIdAndKeepsCallbackAlive) {
  EventQueue q;
  auto sentinel = std::make_shared<int>(7);
  const auto a = q.push(TimePoint::fromSeconds(1), [sentinel] {});
  const auto moved = q.reschedule(a, TimePoint::fromSeconds(2));
  EXPECT_EQ(sentinel.use_count(), 2);  // callback reused, not rebuilt
  EXPECT_FALSE(q.cancel(a));           // old id is dead
  EXPECT_TRUE(q.cancel(moved));
  EXPECT_EQ(sentinel.use_count(), 1);
}

TEST(EventQueueTest, RescheduleOfFiredOrCancelledEventFails) {
  EventQueue q;
  const auto a = q.push(TimePoint::fromSeconds(1), [] {});
  q.pop()();
  EXPECT_EQ(q.reschedule(a, TimePoint::fromSeconds(2)), 0u);
  const auto b = q.push(TimePoint::fromSeconds(1), [] {});
  q.cancel(b);
  EXPECT_EQ(q.reschedule(b, TimePoint::fromSeconds(2)), 0u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, RescheduleIsFifoAsIfFreshlyPushed) {
  // A rescheduled event landing on an existing timestamp fires after the
  // events already queued there — same as cancel()+push() would.
  EventQueue q;
  std::vector<int> order;
  const auto a = q.push(TimePoint::fromSeconds(1), [&] { order.push_back(1); });
  q.push(TimePoint::fromSeconds(5), [&] { order.push_back(2); });
  q.push(TimePoint::fromSeconds(5), [&] { order.push_back(3); });
  q.reschedule(a, TimePoint::fromSeconds(5));
  while (!q.empty()) q.pop()();
  EXPECT_EQ(order, (std::vector<int>{2, 3, 1}));
}

TEST(EventQueueTest, CancelChurnKeepsHeapAtLiveSize) {
  // RTO-style churn: one live timer is cancelled and re-pushed (or
  // rescheduled) thousands of times without ever firing. Both remove the
  // old entry in place, so the heap never holds more than the live set.
  EventQueue q;
  EventId id = q.push(TimePoint::fromSeconds(1), [] {});
  for (int i = 0; i < 10'000; ++i) {
    ASSERT_TRUE(q.cancel(id));
    id = q.push(TimePoint::fromSeconds(1 + i), [] {});
    ASSERT_EQ(q.heapEntries(), 1u);
    id = q.reschedule(id, TimePoint::fromSeconds(2 + i));
    ASSERT_NE(id, 0u);
    ASSERT_EQ(q.heapEntries(), 1u);
  }
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.heapEntries(), 1u);
}

TEST(EventQueueTest, BulkCancelPreservesPopOrder) {
  // Interleave cancels with pushes across duplicate timestamps, so every
  // cancel removes an entry from the middle of the heap, and check the
  // survivors still pop in (time, FIFO) order.
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> cancel_me;
  for (int round = 0; round < 300; ++round) {
    const auto t = TimePoint::fromSeconds(1 + round % 3);
    q.push(t, [&order, round] { order.push_back(round); });
    for (int j = 0; j < 2; ++j) {
      cancel_me.push_back(q.push(t, [] { FAIL() << "cancelled event ran"; }));
    }
  }
  for (const auto id : cancel_me) EXPECT_TRUE(q.cancel(id));
  EXPECT_EQ(q.size(), 300u);
  EXPECT_EQ(q.heapEntries(), q.size());
  while (!q.empty()) q.pop()();
  ASSERT_EQ(order.size(), 300u);
  // Rounds grouped by timestamp (1s, 2s, 3s), FIFO within each group.
  std::vector<int> expected;
  for (int rem = 0; rem < 3; ++rem) {
    for (int round = rem; round < 300; round += 3) expected.push_back(round);
  }
  EXPECT_EQ(order, expected);
}

TEST(EventQueueTest, RescheduleToEarlierOvertakesQueuedEvents) {
  // Moving an event earlier sifts it up past entries it used to trail;
  // moving one to its own time keeps it but behind its equal-time peers.
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 20; ++i) {
    q.push(TimePoint::fromSeconds(10 + i), [&order, i] { order.push_back(i); });
  }
  const auto last =
      q.push(TimePoint::fromSeconds(50), [&] { order.push_back(99); });
  const auto same =
      q.push(TimePoint::fromSeconds(10), [&] { order.push_back(98); });
  const auto moved = q.reschedule(last, TimePoint::fromSeconds(5));
  ASSERT_NE(moved, 0u);
  EXPECT_EQ(q.nextTime(), TimePoint::fromSeconds(5));
  ASSERT_NE(q.reschedule(same, TimePoint::fromSeconds(10)), 0u);
  EXPECT_EQ(q.heapEntries(), 22u);
  while (!q.empty()) q.pop()();
  std::vector<int> expected{99, 0, 98};
  for (int i = 1; i < 20; ++i) expected.push_back(i);
  EXPECT_EQ(order, expected);
}

TEST(EventQueueTest, CancelRootAndLastLeaf) {
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 30; ++i) {
    ids.push_back(q.push(TimePoint::fromSeconds(1 + i),
                         [&order, i] { order.push_back(i); }));
  }
  // Ascending pushes leave the earliest event at the root and the latest
  // in the last leaf.
  EXPECT_TRUE(q.cancel(ids.front()));  // the root
  EXPECT_EQ(q.nextTime(), TimePoint::fromSeconds(2));
  EXPECT_TRUE(q.cancel(ids.back()));  // the last leaf
  EXPECT_EQ(q.size(), 28u);
  EXPECT_EQ(q.heapEntries(), q.size());
  // The root again, now holding a different event; then drain to one and
  // cancel the sole entry, which is root and last leaf at once.
  EXPECT_TRUE(q.cancel(ids[1]));
  while (q.size() > 1) q.pop()();
  EXPECT_TRUE(q.cancel(ids[28]));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.heapEntries(), 0u);
  std::vector<int> expected;
  for (int i = 2; i < 28; ++i) expected.push_back(i);
  EXPECT_EQ(order, expected);
}

TEST(EventQueueTest, CancelResumeEventsOnlyTouchesResumeEntries) {
  EventQueue q;
  bool plain_ran = false;
  q.push(TimePoint::fromSeconds(1), [&] { plain_ran = true; });
  q.pushResume(TimePoint::fromSeconds(2), std::noop_coroutine());
  q.pushResume(TimePoint::fromSeconds(3), std::noop_coroutine());
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.cancelResumeEvents(), 2u);
  EXPECT_EQ(q.size(), 1u);
  q.pop()();
  EXPECT_TRUE(plain_ran);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, MoveOnlyCapturesAreAccepted) {
  // EventFn is move-only, so unique_ptr captures work (std::function
  // rejected them).
  EventQueue q;
  auto owned = std::make_unique<int>(41);
  int got = 0;
  q.push(TimePoint::fromSeconds(1),
         [p = std::move(owned), &got] { got = *p + 1; });
  q.pop()();
  EXPECT_EQ(got, 42);
}

}  // namespace
}  // namespace mgq::sim
