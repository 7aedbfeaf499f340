// Runtime invariant monitoring for chaos runs.
//
// An InvariantMonitor holds named checks — read-only predicates over live
// simulation state — and sweeps them on a fixed simulated cadence plus
// once at teardown. Each failure becomes a structured InvariantViolation
// carrying the simulated time, the check name, a message, and the tail of
// the run's trace buffer (the last lifecycle events before things went
// wrong). Checks must not mutate state: the monitor observing a run must
// never change its byte-exact outcome.
//
// attachStandardInvariants() wires the paper-level invariants:
//   slot-conservation   per manager: usedAt(now) <= capacity
//   bucket-level        every live reservation's token bucket within
//                       [-depth, depth]
//   reservation-liveness nothing stuck kPending past its start (+grace),
//                       nothing kActive past its end (+grace)
//   qos-transition      every QosAgent request-state edge is legal per
//                       qosTransitionLegal() (observer-driven, not swept)
//   queue-consistency   core bottleneck class queues: byte counter ==
//                       sum of queued packets, within capacity
//   monotone-time       the simulated clock never goes backwards
// and, when the run armed an adaptive QosController (DESIGN.md §15):
//   adapt-no-over-admission  controller-managed reservations sum within
//                       each manager's slot-table capacity
//   adapt-bucket-consistent  the enforcing edge leg's bucket depth matches
//                       depthForRate(current amount) with its level in
//                       ±depth — every resize re-paced correctly
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/simulator.hpp"

namespace mgq::obs {
class TraceBuffer;
}
namespace mgq::scenario {
struct BuiltScenario;
}

namespace mgq::chaos {

struct InvariantViolation {
  double t_seconds = 0.0;
  std::string name;     // which invariant ("slot-conservation", ...)
  std::string message;  // what was observed
  /// Tail of the run's trace buffer at detection time (most recent last),
  /// one formatted line per event — the context a repro starts from.
  std::vector<std::string> trace_tail;
};

class InvariantMonitor {
 public:
  /// Simulated time between sweeps once armed.
  static constexpr sim::Duration kCadence = sim::Duration::millis(250);
  /// Recording stops after this many violations (a broken invariant
  /// usually fails every subsequent sweep — the first reports are the
  /// signal).
  static constexpr std::size_t kMaxViolations = 16;
  /// Trace-buffer events attached to each violation.
  static constexpr std::size_t kTraceTail = 8;

  explicit InvariantMonitor(sim::Simulator& sim);
  InvariantMonitor(const InvariantMonitor&) = delete;
  InvariantMonitor& operator=(const InvariantMonitor&) = delete;

  /// Registers a named check returning an error message (empty = OK).
  /// Checks run in registration order and must be read-only.
  void addCheck(std::string name, std::function<std::string()> check);

  /// Attach the run's trace buffer so violations carry its tail.
  void attachTrace(const obs::TraceBuffer* trace) { trace_ = trace; }

  /// Starts the cadence sweep (self-rescheduling simulator event).
  void arm();

  /// Runs every check now; used by arm()'s cadence event and once more at
  /// teardown (RunHooks::before_teardown).
  void sweep();

  /// Records a violation directly — for event-driven invariants (e.g. the
  /// QosAgent state observer) that detect illegality outside a sweep.
  void report(const std::string& name, const std::string& message);

  const std::vector<InvariantViolation>& violations() const {
    return violations_;
  }
  bool ok() const { return violations_.empty(); }

 private:
  struct Check {
    std::string name;
    std::function<std::string()> fn;
  };

  /// The self-rescheduling cadence event.
  void tick();

  sim::Simulator& sim_;
  std::vector<Check> checks_;
  std::vector<InvariantViolation> violations_;
  const obs::TraceBuffer* trace_ = nullptr;
  sim::TimePoint last_seen_ = sim::TimePoint::zero();
  bool armed_ = false;
};

/// Registers the standard invariant set over a built scenario (see file
/// header) and installs the QosAgent state observer. The monitor must
/// outlive the run; the observer is detached when the rig dies with the
/// BuiltScenario (the agent lives inside it).
void attachStandardInvariants(InvariantMonitor& monitor,
                              scenario::BuiltScenario& built);

}  // namespace mgq::chaos
