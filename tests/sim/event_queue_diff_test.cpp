// Differential test: EventQueue against a std::map keyed by (time, seq).
//
// Two drivers share one model. The random-operation driver mixes push,
// pushResume, cancel and reschedule — of live ids and of stale, fired,
// cancelled, garbage and 0 ids — with pop, nextTime, cancelResumeEvents
// and clear. Reschedules move events earlier, later, to their own time and
// onto other events' times. The event-loop driver copies
// Simulator::run/runUntil: nextTime (sometimes skipped, as run() does),
// pop, then a "callback" of 0–3 random operations made while the popped
// event's heap root is still vacant; some of its times fall before the
// last pop. Every pop must fire the model's
// earliest event at the model's time, and every return value and size must
// agree with the model after every operation.
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

// The queue under test, the reference model, and one method per queue
// operation that applies it to both and checks the queue's answer.
class Differential {
 public:
  /// With `past`, some new times fall before the last pop. The queue
  /// accepts them (only Simulator forbids them), and they are what a
  /// popped entry left in a vacant root must never be compared against.
  Differential(std::uint64_t seed, DiffCounts& counts, bool past)
      : rng_(seed), counts_(counts), past_(past) {
    for (std::int64_t p = 0; p < 16; ++p) {
      probes_.push_back(recordEachResume(-p - 1, fired_));
      probes_.back().handle.resume();  // run to the first suspension
    }
  }
  ~Differential() { q_.clear(); }  // before the probes' frames die

  Rng& rng() { return rng_; }
  bool modelEmpty() const { return model_.empty(); }
  /// The id of the event popped last (0 before the first pop).
  EventId lastPopped() const { return last_popped_; }

  // Some live id, or a stale, zero or garbage one.
  EventId pickId() {
    const auto r = rng_.uniformInt(0, 9);
    if (r < 6 && !model_.empty()) {
      const auto it =
          rng_.bernoulli(0.5) ? nearFront(64) : std::prev(model_.end());
      return it->second.id;
    }
    if (r < 9 && !dead_.empty()) {
      return dead_[static_cast<std::size_t>(
          rng_.uniformInt(0, static_cast<std::int64_t>(dead_.size()) - 1))];
    }
    return rng_.bernoulli(0.5) ? 0 : rng_.nextU64();
  }

  void push() {  // half of them tracked
    const auto ns = newTime();
    const std::int64_t tag = next_tag_++;
    const bool track = rng_.bernoulli(0.5);
    std::int64_t& fired = fired_;
    const EventId id =
        track ? q_.push(at(ns), [&fired, tag, t = token_] { fired = tag + *t; })
              : q_.push(at(ns), [&fired, tag] { fired = tag; });
    if (track) ++tracked_;
    record(id, ns, Pending{tag, 0, false, track});
  }

  void pushResume() {
    const auto ns = newTime();
    const auto p = static_cast<std::size_t>(rng_.uniformInt(0, 15));
    record(q_.pushResume(at(ns), probes_[p].handle), ns,
           Pending{-static_cast<std::int64_t>(p) - 1, 0, true, false});
  }

  /// Returns whether `id` was live.
  bool cancel(EventId id) {
    const auto found = live_.find(id);
    const bool expect = found != live_.end();
    EXPECT_EQ(q_.cancel(id), expect);
    if (expect) {
      retire(model_.find(found->second));
      ++counts_.live_cancels;
    } else {
      ++counts_.stale_cancels;
    }
    return expect;
  }

  /// Returns whether `id` was live.
  bool reschedule(EventId id) {
    const auto found = live_.find(id);
    std::int64_t ns = newTime();
    if (found != live_.end()) {
      const std::int64_t old = found->second.first;
      switch (rng_.uniformInt(0, 3)) {
        case 0: ns = old; break;
        case 1: ns = std::max(now_, old - rng_.uniformInt(0, 100)); break;
        case 2: ns = old + rng_.uniformInt(0, 100); break;
        default: break;
      }
    }
    const EventId moved = q_.reschedule(id, at(ns));
    if (found == live_.end()) {
      EXPECT_EQ(moved, 0u);
      ++counts_.stale_reschedules;
      return false;
    }
    EXPECT_NE(moved, id);
    const auto it = model_.find(found->second);
    const std::int64_t old = it->first.first;
    ++(ns < old   ? counts_.reschedules_earlier
       : ns > old ? counts_.reschedules_later
                  : counts_.reschedules_equal);
    Pending p = it->second;
    live_.erase(id);
    dead_.push_back(id);
    model_.erase(it);
    record(moved, ns, p);
    return true;
  }

  void nextTime() {
    ASSERT_EQ(q_.nextTime(), at(model_.begin()->first.first));
  }

  /// Requires !modelEmpty().
  void pop() {
    const auto it = model_.begin();
    TimePoint popped;
    EventFn fn = q_.pop(&popped);
    ASSERT_EQ(popped, at(it->first.first));
    fn();
    ASSERT_EQ(fired_, it->second.tag);
    counts_.resume_pops += it->second.resume ? 1 : 0;
    ++counts_.pops;
    now_ = it->first.first;
    last_popped_ = it->second.id;
    retire(it);
  }

  void cancelResumeEvents() {
    std::size_t expect = 0;
    for (auto it = model_.begin(); it != model_.end();) {
      if (it->second.resume) {
        it = retire(it);
        ++expect;
      } else {
        ++it;
      }
    }
    ASSERT_EQ(q_.cancelResumeEvents(), expect);
  }

  void clear() {
    q_.clear();
    while (!model_.empty()) retire(model_.begin());
  }

  /// Sizes and captured state agree with the model. With `next_time`, also
  /// the earliest time — which settles a vacant root, so the event loop
  /// checks it only where Simulator::runUntil calls nextTime().
  void check(bool next_time) {
    ASSERT_EQ(q_.size(), model_.size());
    ASSERT_EQ(q_.heapEntries(), q_.size());
    ASSERT_EQ(q_.empty(), model_.empty());
    // Captured state dies exactly when its event leaves the queue.
    ASSERT_EQ(token_.use_count(), static_cast<long>(tracked_) + 1);
    if (next_time && !model_.empty()) nextTime();
    counts_.max_size = std::max(counts_.max_size, model_.size());
  }

 private:
  struct Pending {
    std::int64_t tag;  // >= 0: lambda entry; < 0: resume of probe -tag-1
    EventId id;
    bool resume;
    bool tracked;  // holds a copy of `token_`
  };
  using Key = std::pair<std::int64_t, std::uint64_t>;  // (at ns, seq)

  static TimePoint at(std::int64_t ns) {
    return TimePoint::zero() + Duration::nanos(ns);
  }

  void record(EventId id, std::int64_t ns, Pending p) {
    ASSERT_NE(id, 0u);
    ASSERT_FALSE(live_.contains(id));
    const Key key{ns, ++seq_};
    p.id = id;
    model_.emplace(key, p);
    live_.emplace(id, key);
  }

  std::map<Key, Pending>::iterator retire(std::map<Key, Pending>::iterator it) {
    live_.erase(it->second.id);
    dead_.push_back(it->second.id);
    if (it->second.tracked) --tracked_;
    return model_.erase(it);
  }

  // One of the first `limit` pending events, in pop order. Requires
  // !model_.empty().
  std::map<Key, Pending>::iterator nearFront(std::int64_t limit) {
    const auto n = static_cast<std::int64_t>(model_.size());
    return std::next(model_.begin(),
                     rng_.uniformInt(0, std::min(n, limit) - 1));
  }

  std::int64_t newTime() {
    // A narrow window, so equal timestamps (the FIFO tie-break) are common.
    if (!model_.empty() && rng_.bernoulli(0.2)) return nearFront(16)->first.first;
    if (past_ && rng_.bernoulli(0.05)) return now_ - rng_.uniformInt(1, 100);
    return now_ + rng_.uniformInt(0, 200);
  }

  Rng rng_;
  DiffCounts& counts_;
  const bool past_;
  std::int64_t fired_ = -1000;
  std::vector<Probe> probes_;
  EventQueue q_;
  std::map<Key, Pending> model_;
  std::unordered_map<EventId, Key> live_;
  std::vector<EventId> dead_;  // fired, cancelled or superseded ids
  std::uint64_t seq_ = 0;
  std::int64_t next_tag_ = 0;
  std::int64_t now_ = 0;  // time of the last pop: new events land after it
  EventId last_popped_ = 0;
  std::size_t tracked_ = 0;
  const std::shared_ptr<int> token_ = std::make_shared<int>(0);
};

void runDifferential(std::uint64_t seed, int ops, DiffCounts& counts) {
  Differential d(seed, counts, /*past=*/false);
  Rng& rng = d.rng();
  for (int op = 0; op < ops; ++op) {
    SCOPED_TRACE(op);
    // Alternate growth and drain phases so the heap is sometimes deep and
    // sometimes empty.
    const bool grow = (op / 4096) % 2 == 0;
    const auto r = rng.uniformInt(0, 999);
    if (r < (grow ? 380 : 150)) {
      d.push();
    } else if (r < (grow ? 480 : 200)) {
      d.pushResume();
    } else if (r < (grow ? 580 : 400)) {
      d.cancel(d.pickId());
    } else if (r < (grow ? 780 : 600)) {
      d.reschedule(d.pickId());
    } else if (r < 998) {
      if (d.modelEmpty()) continue;
      d.pop();
    } else if (r < 999) {
      d.cancelResumeEvents();
    } else {
      d.clear();
    }
    if (::testing::Test::HasFailure()) return;
    d.check(/*next_time=*/true);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(EventQueueDiffTest, RandomOperationsMatchOrderedMapReference) {
  DiffCounts counts;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    runDifferential(seed, 100'000, counts);
    if (HasFailure()) return;
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

// What the event loop reaches while the popped event's root is vacant: the
// first operation of each callback.
struct VacantCounts {
  std::uint64_t fills = 0;               // push or pushResume
  std::uint64_t live_cancels = 0;        // settles, then removes
  std::uint64_t live_reschedules = 0;    // settles, then sifts
  std::uint64_t popped_id_cancels = 0;   // the just-popped id: a no-op
  std::uint64_t popped_id_reschedules = 0;
  std::uint64_t queries = 0;             // size()/empty() only
  std::uint64_t resume_sweeps = 0;       // cancelResumeEvents
  std::uint64_t clears = 0;
  std::uint64_t unfilled_pops = 0;       // no callback ops, no nextTime
  std::uint64_t unfilled_next_times = 0; // no callback ops, then nextTime
};

void runEventLoop(std::uint64_t seed, int events, DiffCounts& counts,
                  VacantCounts& vacant) {
  Differential d(seed, counts, /*past=*/true);
  Rng& rng = d.rng();
  for (int e = 0; e < events; ++e) {
    SCOPED_TRACE(e);
    // Growth phases push more than they cancel, drain phases the reverse.
    const bool grow = (e / 2048) % 2 == 0;
    if (d.modelEmpty()) d.push();  // the loop always has an event to run
    // run() pops without asking nextTime() first; runUntil() asks.
    const bool ask = rng.bernoulli(0.7);
    if (ask) d.nextTime();
    if (::testing::Test::HasFailure()) return;
    d.pop();
    if (::testing::Test::HasFailure()) return;
    d.check(/*next_time=*/false);
    const auto n = rng.uniformInt(0, 3);
    if (n == 0) ++(ask ? vacant.unfilled_next_times : vacant.unfilled_pops);
    for (std::int64_t k = 0; k < n; ++k) {
      const bool first = k == 0;
      const auto r = rng.uniformInt(0, 9'999);
      if (r < (grow ? 6'000 : 2'500)) {
        d.push();
        vacant.fills += first ? 1 : 0;
      } else if (r < (grow ? 7'500 : 3'000)) {
        d.pushResume();
        vacant.fills += first ? 1 : 0;
      } else if (r < (grow ? 8'000 : 5'500)) {
        const bool popped = rng.bernoulli(0.3);
        const bool live = d.cancel(popped ? d.lastPopped() : d.pickId());
        if (first) ++(popped ? vacant.popped_id_cancels
                      : live ? vacant.live_cancels
                             : vacant.queries);
      } else if (r < (grow ? 9'000 : 8'000)) {
        const bool popped = rng.bernoulli(0.3);
        const bool live = d.reschedule(popped ? d.lastPopped() : d.pickId());
        if (first) ++(popped ? vacant.popped_id_reschedules
                      : live ? vacant.live_reschedules
                             : vacant.queries);
      } else if (r < 9'950) {
        vacant.queries += first ? 1 : 0;  // check() below asks size/empty
      } else if (r < 9'998) {
        d.cancelResumeEvents();
        vacant.resume_sweeps += first ? 1 : 0;
      } else {
        d.clear();
        vacant.clears += first ? 1 : 0;
      }
      if (::testing::Test::HasFailure()) return;
      d.check(/*next_time=*/false);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(EventQueueDiffTest, EventLoopWithVacantRootMatchesOrderedMapReference) {
  DiffCounts counts;
  VacantCounts vacant;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    runEventLoop(seed, 60'000, counts, vacant);
    if (HasFailure()) return;
  }
  EXPECT_GT(counts.pops, 100'000u);
  EXPECT_GT(counts.resume_pops, 10'000u);
  EXPECT_GT(counts.max_size, 150u);  // five levels of the 4-ary heap
  EXPECT_GT(counts.reschedules_earlier, 1'000u);
  EXPECT_GT(counts.reschedules_later, 1'000u);
  EXPECT_GT(counts.reschedules_equal, 1'000u);
  // Every kind of operation meets a vacant root many times.
  EXPECT_GT(vacant.fills, 10'000u);
  EXPECT_GT(vacant.live_cancels, 1'000u);
  EXPECT_GT(vacant.live_reschedules, 1'000u);
  EXPECT_GT(vacant.popped_id_cancels, 1'000u);
  EXPECT_GT(vacant.popped_id_reschedules, 1'000u);
  EXPECT_GT(vacant.queries, 1'000u);
  EXPECT_GT(vacant.resume_sweeps, 50u);
  EXPECT_GT(vacant.clears, 3u);
  EXPECT_GT(vacant.unfilled_pops, 1'000u);
  EXPECT_GT(vacant.unfilled_next_times, 1'000u);
}

}  // namespace
}  // namespace mgq::sim
