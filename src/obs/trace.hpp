// Structured trace ring-buffer for lifecycle events: reservation
// request → slot admission → activation → failure/recovery/degrade, plus
// any other discrete occurrences a bench wants on a timeline next to its
// metrics (per-flow drops, fault injections, ...).
//
// Bounded: when full, the oldest event is discarded and `droppedEvents()`
// counts the loss, so a runaway event source can never exhaust memory.
// Like the metrics registry, recording is gated by a runtime enabled flag.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

namespace mgq::obs {

struct TraceEvent {
  double t_seconds = 0.0;    // stamped via the installed clock (0 if none)
  std::string scope;         // run label for multi-run benches ("" = global)
  std::string category;      // event family: "reservation", "qos", "fault"
  std::string event;         // what happened: "admitted", "degraded", ...
  std::uint64_t id = 0;      // subject id (reservation id, comm context)
  double value = 0.0;        // event magnitude (reserved bps, retry count)
  std::string detail;        // free-form reason/context
};

class TraceBuffer {
 public:
  explicit TraceBuffer(std::size_t capacity = 16 * 1024)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  void setEnabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  /// Scope prefix applied to subsequently recorded events; benches that
  /// run several configurations against one buffer switch it per run.
  void setScope(std::string scope) { scope_ = std::move(scope); }
  const std::string& scope() const { return scope_; }

  /// Timestamp source (simulated seconds). Re-attach per run: each fresh
  /// Simulator supplies its own clock.
  void setClock(std::function<double()> now_seconds) {
    clock_ = std::move(now_seconds);
  }

  void record(std::string category, std::string event, std::uint64_t id = 0,
              double value = 0.0, std::string detail = {});

  const std::deque<TraceEvent>& events() const { return events_; }
  std::size_t capacity() const { return capacity_; }
  /// Events discarded because the ring was full.
  std::uint64_t droppedEvents() const { return dropped_; }
  void clear();

 private:
  std::size_t capacity_;
  std::deque<TraceEvent> events_;
  std::uint64_t dropped_ = 0;
  bool enabled_ = true;
  std::string scope_;
  std::function<double()> clock_;
};

}  // namespace mgq::obs
