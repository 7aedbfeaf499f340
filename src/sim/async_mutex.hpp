// Cooperative mutex for simulated processes: serializes critical sections
// across coroutines (e.g. interleaving-free writes to a shared TCP
// connection). FIFO handoff via Condition.
#pragma once

#include "sim/condition.hpp"
#include "sim/task.hpp"

namespace mgq::sim {

class AsyncMutex {
 public:
  explicit AsyncMutex(Simulator& sim) : cond_(sim) {}

  Task<> lock() {
    while (locked_) co_await cond_.wait();
    locked_ = true;
  }

  void unlock() {
    locked_ = false;
    cond_.notifyOne();
  }

  bool locked() const { return locked_; }

 private:
  Condition cond_;
  bool locked_ = false;
};

}  // namespace mgq::sim
