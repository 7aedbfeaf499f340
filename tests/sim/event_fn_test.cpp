// EventFn ownership across moves: the trivially relocated path (plain
// captures, resume handles, the heap fallback's pointer) and the ops-table
// path (non-trivial captures) must both keep exactly one live callable,
// run it after any chain of moves, and destroy captures exactly once.
#include "sim/event_fn.hpp"

#include <gtest/gtest.h>

#include <array>
#include <coroutine>
#include <cstdint>
#include <exception>
#include <memory>
#include <type_traits>
#include <utility>

namespace mgq::sim {
namespace {

TEST(EventFnTest, TriviallyCopyableCaptureSurvivesMoveChains) {
  int out = 0;
  const std::uint64_t id = 0x1234'5678'9abcULL;
  const double scale = 2.5;
  auto body = [&out, id, scale] {
    out = static_cast<int>(id % 1000) + static_cast<int>(scale * 2);
  };
  static_assert(std::is_trivially_copyable_v<decltype(body)>);
  static_assert(std::is_trivially_destructible_v<decltype(body)>);

  EventFn a(body);
  EventFn b(std::move(a));
  EventFn c(std::move(b));
  EXPECT_FALSE(a);
  EXPECT_FALSE(b);
  EventFn d;
  d = std::move(c);
  EventFn e([] {});
  e = std::move(d);  // move-assign over an occupied EventFn
  EXPECT_FALSE(c);
  EXPECT_FALSE(d);
  ASSERT_TRUE(e);
  e();
  EXPECT_EQ(out, static_cast<int>(id % 1000) + 5);

  // Self move-assignment leaves the callable in place.
  EventFn& alias = e;
  e = std::move(alias);
  ASSERT_TRUE(e);
  out = 0;
  e();
  EXPECT_EQ(out, static_cast<int>(id % 1000) + 5);
}

TEST(EventFnTest, SharedPtrCaptureKeepsExactUseCount) {
  auto sp = std::make_shared<int>(7);
  int seen = 0;
  {
    EventFn a([sp, &seen] { seen = *sp; });
    EXPECT_EQ(sp.use_count(), 2);
    EventFn b(std::move(a));
    EXPECT_EQ(sp.use_count(), 2);
    EventFn c;
    c = std::move(b);
    EXPECT_EQ(sp.use_count(), 2);
    c();
    EXPECT_EQ(seen, 7);
    c.reset();
    EXPECT_EQ(sp.use_count(), 1);
    EXPECT_FALSE(c);
    c.reset();  // resetting an empty EventFn is a no-op
    EXPECT_EQ(sp.use_count(), 1);

    EventFn d([sp] {});
    EXPECT_EQ(sp.use_count(), 2);
    d = EventFn([] {});  // a trivial callable replaces the capture
    EXPECT_EQ(sp.use_count(), 1);
    EventFn e([sp] {});
    EXPECT_EQ(sp.use_count(), 2);
  }  // e's destructor
  EXPECT_EQ(sp.use_count(), 1);
}

TEST(EventFnTest, HeapFallbackCapturesMoveAndDestroyOnce) {
  auto sp = std::make_shared<int>(3);
  std::array<std::uint64_t, 16> big{};
  big[15] = 40;
  static_assert(sizeof(big) > EventFn::kInlineBytes);
  std::uint64_t out = 0;
  {
    // Trivially copyable but too large: lives on the heap.
    EventFn a([big, &out] { out = big[15] + 2; });
    EventFn b(std::move(a));
    EventFn c;
    c = std::move(b);
    c();
    EXPECT_EQ(out, 42u);

    // Too large and non-trivial.
    EventFn d([big, sp, &out] {
      out = big[15] + static_cast<std::uint64_t>(*sp);
    });
    EXPECT_EQ(sp.use_count(), 2);
    EventFn e(std::move(d));
    EventFn f;
    f = std::move(e);
    EXPECT_EQ(sp.use_count(), 2);
    f();
    EXPECT_EQ(out, 43u);
    f = std::move(c);  // destroys f's heap callable, adopts c's
    EXPECT_EQ(sp.use_count(), 1);
    f();
    EXPECT_EQ(out, 42u);
    EventFn g([big, sp] {});
    EXPECT_EQ(sp.use_count(), 2);
  }
  EXPECT_EQ(sp.use_count(), 1);
}

struct Tracked {
  explicit Tracked(int& d) : deaths(&d) {}
  ~Tracked() { ++*deaths; }
  int* deaths;
};

TEST(EventFnTest, MoveOnlyUniquePtrCapture) {
  int deaths = 0;
  int out = 0;
  {
    auto owned = std::make_unique<Tracked>(deaths);
    EventFn a([p = std::move(owned), &out] { out = *p->deaths + 10; });
    EventFn b(std::move(a));
    EventFn c;
    c = std::move(b);
    EXPECT_EQ(deaths, 0);
    c();
    EXPECT_EQ(out, 10);
    c.reset();
    EXPECT_EQ(deaths, 1);
    EventFn d([p = std::make_unique<Tracked>(deaths)] {});
    EventFn e(std::move(d));
  }
  EXPECT_EQ(deaths, 2);
}

struct Counter {
  struct promise_type {
    Counter get_return_object() {
      return Counter{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { std::terminate(); }
  };
  explicit Counter(std::coroutine_handle<promise_type> h) : handle(h) {}
  Counter(const Counter&) = delete;
  ~Counter() { handle.destroy(); }
  std::coroutine_handle<promise_type> handle;
};

Counter countResumes(int& resumes) {
  for (;;) {
    co_await std::suspend_always{};
    ++resumes;
  }
}

TEST(EventFnTest, ResumeHandleSurvivesMovesAndOutlivesTheFn) {
  int resumes = 0;
  Counter coro = countResumes(resumes);
  coro.handle.resume();  // to the first suspension
  {
    EventFn a = EventFn::resume(coro.handle);
    EventFn b(std::move(a));
    EventFn c;
    c = std::move(b);
    EXPECT_FALSE(a);
    EXPECT_FALSE(b);
    c();
    EXPECT_EQ(resumes, 1);
    EventFn d = EventFn::resume(coro.handle);
    c = std::move(d);
    c();
    EXPECT_EQ(resumes, 2);
  }
  // Destroying the EventFns left the coroutine frame alone.
  EXPECT_FALSE(coro.handle.done());
  coro.handle.resume();
  EXPECT_EQ(resumes, 3);
}

TEST(EventFnTest, IsResumeOnlyForResumeHandles) {
  int resumes = 0;
  Counter coro = countResumes(resumes);
  coro.handle.resume();  // to the first suspension
  EventFn empty;
  EventFn plain([] {});
  // A lambda that resumes a handle is still a plain callback.
  EventFn wrapped([h = coro.handle] { h.resume(); });
  std::array<std::uint64_t, 16> big{};
  EventFn heap([big] { (void)big; });
  EXPECT_FALSE(empty.isResume());
  EXPECT_FALSE(plain.isResume());
  EXPECT_FALSE(wrapped.isResume());
  EXPECT_FALSE(heap.isResume());

  EventFn a = EventFn::resume(coro.handle);
  EXPECT_TRUE(a.isResume());
  EventFn b(std::move(a));
  EXPECT_TRUE(b.isResume());
  EXPECT_FALSE(a.isResume());
  EventFn c;
  c = std::move(b);
  EXPECT_TRUE(c.isResume());
  EXPECT_FALSE(b.isResume());
  c();
  EXPECT_EQ(resumes, 1);
  EXPECT_TRUE(c.isResume());  // invoking keeps the representation
  c = std::move(plain);
  EXPECT_FALSE(c.isResume());
  plain = EventFn::resume(coro.handle);
  EXPECT_TRUE(plain.isResume());
  plain.reset();
  EXPECT_FALSE(plain.isResume());
}

}  // namespace
}  // namespace mgq::sim
