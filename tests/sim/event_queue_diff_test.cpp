// Differential test: EventQueue against a std::map keyed by (time, seq).
// Seeded random operation sequences mix push, pushResume, cancel and
// reschedule — of live ids and of stale, fired, cancelled, garbage and 0
// ids — with pop, nextTime, cancelResumeEvents and clear. Reschedules move
// events earlier, later, to their own time and onto other events' times.
// Every pop must fire the model's earliest event at the model's time, and
// every return value and size must agree with the model after every step.
#include <gtest/gtest.h>

#include <coroutine>
#include <cstdint>
#include <exception>
#include <iterator>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/random.hpp"

namespace mgq::sim {
namespace {

// A coroutine that records its tag each time it is resumed, so resume
// entries popped from the queue can be identified like lambda entries.
struct Probe {
  struct promise_type {
    Probe get_return_object() {
      return Probe{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { std::terminate(); }
  };
  explicit Probe(std::coroutine_handle<promise_type> h) : handle(h) {}
  Probe(Probe&& o) noexcept : handle(std::exchange(o.handle, {})) {}
  Probe(const Probe&) = delete;
  ~Probe() {
    if (handle) handle.destroy();
  }
  std::coroutine_handle<promise_type> handle;
};

Probe recordEachResume(std::int64_t tag, std::int64_t& fired) {
  for (;;) {
    fired = tag;
    co_await std::suspend_always{};
  }
}

struct DiffCounts {
  std::uint64_t pops = 0;
  std::uint64_t resume_pops = 0;
  std::uint64_t live_cancels = 0;
  std::uint64_t stale_cancels = 0;
  std::uint64_t reschedules_earlier = 0;
  std::uint64_t reschedules_later = 0;
  std::uint64_t reschedules_equal = 0;
  std::uint64_t stale_reschedules = 0;
  std::size_t max_size = 0;
};

void runDifferential(std::uint64_t seed, int ops, DiffCounts& counts) {
  struct Pending {
    std::int64_t tag;  // >= 0: lambda entry; < 0: resume of probe -tag-1
    EventId id;
    bool resume;
    bool tracked;  // holds a copy of `token`
  };
  using Key = std::pair<std::int64_t, std::uint64_t>;  // (at ns, seq)

  Rng rng(seed);
  EventQueue q;
  std::map<Key, Pending> model;
  std::unordered_map<EventId, Key> live;
  std::vector<EventId> dead;  // fired, cancelled or superseded ids
  std::uint64_t seq = 0;
  std::int64_t next_tag = 0;
  std::int64_t fired = -1000;
  std::int64_t now = 0;  // time of the last pop: new events land after it
  std::size_t tracked = 0;
  const auto token = std::make_shared<int>(0);

  std::vector<Probe> probes;
  for (std::int64_t p = 0; p < 16; ++p) {
    probes.push_back(recordEachResume(-p - 1, fired));
    probes.back().handle.resume();  // run to the first suspension
  }

  auto at = [](std::int64_t ns) {
    return TimePoint::zero() + Duration::nanos(ns);
  };
  auto record = [&](EventId id, std::int64_t ns, Pending p) {
    ASSERT_NE(id, 0u);
    ASSERT_FALSE(live.contains(id));
    const Key key{ns, ++seq};
    p.id = id;
    model.emplace(key, p);
    live.emplace(id, key);
  };
  auto retire = [&](std::map<Key, Pending>::iterator it) {
    live.erase(it->second.id);
    dead.push_back(it->second.id);
    if (it->second.tracked) --tracked;
    return model.erase(it);
  };
  // One of the first `limit` pending events, in pop order. Requires
  // !model.empty().
  auto nearFront = [&](std::int64_t limit) {
    const auto n = static_cast<std::int64_t>(model.size());
    return std::next(model.begin(), rng.uniformInt(0, std::min(n, limit) - 1));
  };
  // Some live id, or a stale, zero or garbage one.
  auto pickId = [&]() -> EventId {
    const auto r = rng.uniformInt(0, 9);
    if (r < 6 && !model.empty()) {
      const auto it = rng.bernoulli(0.5) ? nearFront(64) : std::prev(model.end());
      return it->second.id;
    }
    if (r < 9 && !dead.empty()) {
      return dead[static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(dead.size()) - 1))];
    }
    return rng.bernoulli(0.5) ? 0 : rng.nextU64();
  };
  auto newTime = [&]() {
    // A narrow window, so equal timestamps (the FIFO tie-break) are common.
    if (!model.empty() && rng.bernoulli(0.2)) return nearFront(16)->first.first;
    return now + rng.uniformInt(0, 200);
  };

  for (int op = 0; op < ops; ++op) {
    // Alternate growth and drain phases so the heap is sometimes deep and
    // sometimes empty.
    const bool grow = (op / 4096) % 2 == 0;
    const auto r = rng.uniformInt(0, 999);
    if (r < (grow ? 380 : 150)) {  // push, half of them tracked
      const auto ns = newTime();
      const std::int64_t tag = next_tag++;
      const bool track = rng.bernoulli(0.5);
      const EventId id =
          track ? q.push(at(ns), [&fired, tag, t = token] { fired = tag + *t; })
                : q.push(at(ns), [&fired, tag] { fired = tag; });
      if (track) ++tracked;
      record(id, ns, Pending{tag, 0, false, track});
    } else if (r < (grow ? 480 : 200)) {  // pushResume
      const auto ns = newTime();
      const auto p = static_cast<std::size_t>(rng.uniformInt(0, 15));
      record(q.pushResume(at(ns), probes[p].handle), ns,
             Pending{-static_cast<std::int64_t>(p) - 1, 0, true, false});
    } else if (r < (grow ? 580 : 400)) {  // cancel
      const EventId id = pickId();
      const auto found = live.find(id);
      const bool expect = found != live.end();
      ASSERT_EQ(q.cancel(id), expect) << "op " << op;
      if (expect) {
        retire(model.find(found->second));
        ++counts.live_cancels;
      } else {
        ++counts.stale_cancels;
      }
    } else if (r < (grow ? 780 : 600)) {  // reschedule
      const EventId id = pickId();
      const auto found = live.find(id);
      std::int64_t ns = newTime();
      if (found != live.end()) {
        const std::int64_t old = found->second.first;
        switch (rng.uniformInt(0, 3)) {
          case 0: ns = old; break;
          case 1: ns = std::max(now, old - rng.uniformInt(0, 100)); break;
          case 2: ns = old + rng.uniformInt(0, 100); break;
          default: break;
        }
      }
      const EventId moved = q.reschedule(id, at(ns));
      if (found == live.end()) {
        ASSERT_EQ(moved, 0u) << "op " << op;
        ++counts.stale_reschedules;
      } else {
        ASSERT_NE(moved, id);
        const auto it = model.find(found->second);
        const std::int64_t old = it->first.first;
        ++(ns < old   ? counts.reschedules_earlier
           : ns > old ? counts.reschedules_later
                      : counts.reschedules_equal);
        Pending p = it->second;
        live.erase(id);
        dead.push_back(id);
        model.erase(it);
        record(moved, ns, p);
      }
    } else if (r < 998) {  // pop
      if (model.empty()) continue;
      const auto it = model.begin();
      TimePoint popped;
      EventFn fn = q.pop(&popped);
      ASSERT_EQ(popped, at(it->first.first)) << "op " << op;
      fn();
      ASSERT_EQ(fired, it->second.tag) << "op " << op;
      counts.resume_pops += it->second.resume ? 1 : 0;
      ++counts.pops;
      now = it->first.first;
      retire(it);
    } else if (r < 999) {  // cancelResumeEvents
      std::size_t expect = 0;
      for (auto it = model.begin(); it != model.end();) {
        if (it->second.resume) {
          it = retire(it);
          ++expect;
        } else {
          ++it;
        }
      }
      ASSERT_EQ(q.cancelResumeEvents(), expect) << "op " << op;
    } else {  // clear
      q.clear();
      while (!model.empty()) retire(model.begin());
    }
    if (::testing::Test::HasFatalFailure()) return;

    ASSERT_EQ(q.size(), model.size()) << "op " << op;
    ASSERT_EQ(q.heapEntries(), q.size()) << "op " << op;
    ASSERT_EQ(q.empty(), model.empty());
    // Captured state dies exactly when its event leaves the queue.
    ASSERT_EQ(token.use_count(), static_cast<long>(tracked) + 1) << "op " << op;
    if (!model.empty()) {
      ASSERT_EQ(q.nextTime(), at(model.begin()->first.first)) << "op " << op;
    }
    counts.max_size = std::max(counts.max_size, model.size());
  }
  q.clear();  // before the probes' frames die
}

TEST(EventQueueDiffTest, RandomOperationsMatchOrderedMapReference) {
  DiffCounts counts;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    runDifferential(seed, 100'000, counts);
    if (HasFatalFailure()) return;
  }
  // Every path is reached often, and the heap gets deep enough for the
  // 4-ary sifts to cross several levels.
  EXPECT_GT(counts.pops, 10'000u);
  EXPECT_GT(counts.resume_pops, 1'000u);
  EXPECT_GT(counts.live_cancels, 1'000u);
  EXPECT_GT(counts.stale_cancels, 1'000u);
  EXPECT_GT(counts.reschedules_earlier, 1'000u);
  EXPECT_GT(counts.reschedules_later, 1'000u);
  EXPECT_GT(counts.reschedules_equal, 1'000u);
  EXPECT_GT(counts.stale_reschedules, 1'000u);
  EXPECT_GT(counts.max_size, 500u);
}

}  // namespace
}  // namespace mgq::sim
