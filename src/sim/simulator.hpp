// The discrete-event simulator: virtual clock, event queue, coroutine
// process management, and the per-run deterministic RNG.
#pragma once

#include <coroutine>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace mgq::sim {

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1);
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  ~Simulator();

  TimePoint now() const { return now_; }
  Rng& rng() { return rng_; }

  /// Schedules `fn` to run after `delay` of simulated time.
  EventId schedule(Duration delay, EventFn fn);
  EventId scheduleAt(TimePoint at, EventFn fn);
  /// Wakeup fast path: schedules `h` to be resumed — no lambda, no
  /// type-erased allocation. delay()/Condition/spawn enqueue through
  /// this, and destroyProcesses() cancels everything scheduled this way.
  EventId scheduleResume(Duration delay, std::coroutine_handle<> h);
  /// Cancels a pending event; returns false if it already fired.
  bool cancel(EventId id);
  /// Retargets a still-pending event to `delay` from now, reusing its
  /// callback — observably identical to cancel()+schedule() of the same
  /// callable, without destroying/rebuilding it. Returns the new id, or
  /// 0 if `id` already fired/cancelled (nothing is scheduled). The timer
  /// restart path for TCP's per-ACK RTO churn.
  EventId reschedule(EventId id, Duration delay);

  /// Launches a detached root process at the current simulated time. The
  /// simulator keeps the coroutine frame alive until it completes (or the
  /// simulator is destroyed).
  void spawn(Task<> task);

  /// Runs until the event queue drains or stop() is called.
  void run();
  /// Runs all events with timestamps <= t, then advances the clock to t.
  void runUntil(TimePoint t);
  /// Convenience: runUntil(now() + d).
  void runFor(Duration d);
  /// Requests that run()/runUntil() return after the current event.
  void stop() { stopped_ = true; }

  /// Destroys every spawned process frame immediately, then cancels every
  /// pending coroutine wakeup (delay timers, Condition notifies, spawn
  /// kickoffs) so none can fire on a dangling frame afterwards.
  /// Infrastructure objects (networks, MPI worlds) call this from their
  /// destructors so that suspended coroutines — whose locals may own
  /// sockets referring to that infrastructure — are unwound while it is
  /// still alive, instead of at Simulator destruction when it is already
  /// gone. Frame destructors may themselves enqueue wakeups (e.g. an
  /// AsyncMutex guard unlocking), which is why the frames go first and
  /// the cancellation sweep second.
  void destroyProcesses() {
    processes_.clear();
    queue_.cancelResumeEvents();
  }

  /// Awaitable: suspends the calling coroutine for `d` simulated time.
  auto delay(Duration d) {
    struct Awaiter {
      Simulator& sim;
      Duration d;
      bool await_ready() const noexcept { return d <= Duration::zero(); }
      void await_suspend(std::coroutine_handle<> h) {
        sim.scheduleResume(d, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, d};
  }

  /// Awaitable: suspends until the given absolute simulated time (no-op if
  /// already past it).
  auto delayUntil(TimePoint t) { return delay(t - now_); }

  /// Number of events executed so far (for benchmarks and tests).
  std::uint64_t eventsExecuted() const { return events_executed_; }

 private:
  void pruneFinishedProcesses();

  EventQueue queue_;
  TimePoint now_;
  Rng rng_;
  bool stopped_ = false;
  std::uint64_t events_executed_ = 0;
  std::vector<Task<>> processes_;
};

}  // namespace mgq::sim
