// Deterministic fault injection for simulations.
//
// The injector drives *registered targets* (links, loss episodes, resource
// managers — anything with down/up/loss semantics) through a schedule of
// fault events. It is layered below net/gara on purpose: targets are plain
// callbacks, so any subsystem can expose itself to fault plans without the
// simulator core depending on it (net/faults.hpp provides adapters for
// links; gara's FlakyResourceManager for managers).
//
// Determinism: the injector draws no randomness of its own — a plan is a
// fixed list of timed events, so the same plan produces the same fault
// sequence regardless of what the workload does. Seeded plans come from
// chaos::ChaosPlanGenerator; seeded wire faults draw from their targets'
// own Rngs. Every fired event is appended to a textual log with fixed
// formatting; two runs of the same plan must produce byte-identical logs
// (tested).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace mgq::sim {

/// Actions the injector can drive on a registered target. Unset actions
/// turn the corresponding plan entries into logged no-ops.
struct FaultTarget {
  std::function<void()> down;
  std::function<void()> up;
  std::function<void(double)> loss_start;  // parameter: drop probability
  std::function<void()> loss_stop;
};

enum class FaultAction {
  kDown,       // take the target out of service
  kUp,         // restore it
  kLossStart,  // begin a packet-loss episode (param = drop probability)
  kLossStop,   // end the loss episode
};

const char* faultActionName(FaultAction a);

/// Inverse of faultActionName; returns false for unknown names (replay
/// files carry actions by name).
bool faultActionFromName(const std::string& name, FaultAction& out);

/// One entry of a fault plan.
struct FaultEvent {
  TimePoint at;
  std::string target;
  FaultAction action = FaultAction::kDown;
  double param = 0.0;
};

class FaultInjector {
 public:
  explicit FaultInjector(Simulator& sim) : sim_(sim) {}
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Registers (or replaces) a named target.
  void registerTarget(const std::string& name, FaultTarget target);
  bool hasTarget(const std::string& name) const {
    return targets_.count(name) != 0;
  }

  /// Schedules a single plan event on the simulator. An event already due
  /// (at or before now) fires at once instead: it costs no simulator
  /// event, so a t=0 entry takes effect while the scenario is built.
  void schedule(const FaultEvent& event);
  void schedulePlan(const std::vector<FaultEvent>& plan);

  /// Fires an event immediately (bypassing the simulator clock); used by
  /// schedule() internally and handy in tests.
  void fire(const FaultEvent& event);

  /// Every fired event, one fixed-format line each, in firing order.
  const std::vector<std::string>& log() const { return log_; }
  /// The log joined with newlines — for byte-identical replay checks.
  std::string logText() const;
  /// Fixed-format summary line ("fired=N skipped_actions=N"). Kept out of
  /// logText() so existing per-line expectations stay valid; chaos logs
  /// append it so a shrink step cannot silently drift a repro onto unset
  /// actions without the log changing. Registered footer counters (below)
  /// that read nonzero are appended as " name=N" in registration order.
  std::string logFooter() const;

  /// Registers a supplementary footer counter (e.g. an injector's
  /// corrupted/duplicated/reordered totals). Counters that read zero are
  /// omitted from the footer, so plans that never exercise a category
  /// produce byte-identical footers with or without it registered. The
  /// callback must stay valid for the injector's lifetime.
  void registerFooterCounter(std::string name,
                             std::function<std::uint64_t()> fn) {
    footer_counters_.emplace_back(std::move(name), std::move(fn));
  }
  std::uint64_t firedCount() const { return fired_; }
  /// Plan entries that fired but drove nothing: the target was
  /// unregistered, or its callback for the requested action was unset.
  std::uint64_t skippedActions() const { return skipped_; }

 private:
  Simulator& sim_;
  std::map<std::string, FaultTarget> targets_;
  std::vector<std::pair<std::string, std::function<std::uint64_t()>>>
      footer_counters_;
  std::vector<std::string> log_;
  std::uint64_t fired_ = 0;
  std::uint64_t skipped_ = 0;
};

}  // namespace mgq::sim
