// Unbounded awaitable FIFO channel between simulated processes.
// push() never blocks; pop() suspends the caller until a value arrives.
#pragma once

#include <deque>
#include <utility>

#include "sim/condition.hpp"
#include "sim/task.hpp"

namespace mgq::sim {

template <typename T>
class Channel {
 public:
  explicit Channel(Simulator& sim) : cond_(sim) {}

  void push(T value) {
    items_.push_back(std::move(value));
    cond_.notifyOne();
  }

  /// Suspends until an item is available, then removes and returns it.
  Task<T> pop() {
    while (items_.empty()) co_await cond_.wait();
    T value = std::move(items_.front());
    items_.pop_front();
    co_return value;
  }

 private:
  Condition cond_;
  std::deque<T> items_;
};

}  // namespace mgq::sim
