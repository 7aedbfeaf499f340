// Parameter sweeps: cross-product expansion of a base spec over named
// parameters, and the std::thread pool that runs many specs (or chaos
// seeds) concurrently — one independent Simulator per run, so results are
// bit-identical to serial execution regardless of thread count.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

namespace mgq::scenario {

struct SweepParam {
  std::string key;
  std::vector<double> values;
};

/// Cross-product expansion: every combination of parameter values applied
/// to a copy of `base`, with "/key=value" appended to each name. Throws
/// std::invalid_argument when applyParam refuses a key or value.
std::vector<ScenarioSpec> expandSweep(const ScenarioSpec& base,
                                      const std::vector<SweepParam>& params);

/// Calls job(i) for every i in [0, count) on `threads` workers (<= 0:
/// hardware concurrency), handing indices out in increasing order; with
/// one worker it runs inline on the calling thread. A job returning false
/// stops the hand-out above its index, while every lower index still
/// runs. Returns one past the lowest index whose job returned false, or
/// `count` when none did.
std::size_t runIndexed(int threads, std::size_t count,
                       const std::function<bool(std::size_t)>& job);

class SweepRunner {
 public:
  /// threads <= 0: hardware concurrency.
  explicit SweepRunner(int threads = 0);

  /// Runs every spec (each on its own Simulator) across the pool and
  /// returns results in spec order — the output is independent of thread
  /// count and completion order.
  std::vector<ScenarioResult> run(const std::vector<ScenarioSpec>& specs) const;

  int threads() const { return threads_; }

 private:
  int threads_;
};

}  // namespace mgq::scenario
