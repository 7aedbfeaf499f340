#include "sim/simulator.hpp"

#include <cstdio>
#include <cstdlib>

namespace mgq::sim {

Simulator::Simulator(std::uint64_t seed) : rng_(seed) {}

Simulator::~Simulator() {
  // Destroy still-suspended processes before the queue so no dangling
  // wakeup can fire during teardown.
  processes_.clear();
  queue_.clear();
}

void Simulator::clockRewind(const char* where) {
  std::fprintf(stderr, "Simulator::%s: event before the current time\n",
               where);
  std::abort();
}

EventId Simulator::scheduleResume(Duration delay, std::coroutine_handle<> h) {
  if (delay < Duration::zero()) [[unlikely]] clockRewind("scheduleResume");
  return queue_.pushResume(now_ + delay, h);
}

bool Simulator::cancel(EventId id) { return queue_.cancel(id); }

EventId Simulator::reschedule(EventId id, Duration delay) {
  if (delay < Duration::zero()) [[unlikely]] clockRewind("reschedule");
  return queue_.reschedule(id, now_ + delay);
}

void Simulator::spawn(Task<> task) {
  auto handle = task.handle();
  processes_.push_back(std::move(task));
  queue_.pushResume(now_, handle);
}

void Simulator::run() {
  stopped_ = false;
  while (!queue_.empty() && !stopped_) {
    TimePoint at;
    auto fn = queue_.pop(&at);
    if (at < now_) [[unlikely]] clockRewind("run");
    now_ = at;
    fn();
    ++events_executed_;
    if ((events_executed_ & 0x3ff) == 0) pruneFinishedProcesses();
  }
  pruneFinishedProcesses();
}

void Simulator::runUntil(TimePoint t) {
  stopped_ = false;
  while (!queue_.empty() && !stopped_ && queue_.nextTime() <= t) {
    TimePoint at;
    auto fn = queue_.pop(&at);
    // Same monotonicity guarantee as run(): a stale or corrupted queue
    // entry must never move the clock backwards.
    if (at < now_) [[unlikely]] clockRewind("runUntil");
    now_ = at;
    fn();
    ++events_executed_;
    if ((events_executed_ & 0x3ff) == 0) pruneFinishedProcesses();
  }
  if (!stopped_ && now_ < t) now_ = t;
  pruneFinishedProcesses();
}

void Simulator::runFor(Duration d) { runUntil(now_ + d); }

void Simulator::pruneFinishedProcesses() {
  std::erase_if(processes_, [](const Task<>& t) { return t.done(); });
}

}  // namespace mgq::sim
