// ChaosRunner: executes chaos plans against registry scenarios, sweeps
// seeds until an invariant breaks, and shrinks a failing plan to a
// minimal reproducer.
//
// A chaos run is a normal scenario run with three changes: the plan
// replaces the spec's scripted faults and its shape checks are stripped
// (failure means invariant violations, nothing else), the chaos-only
// targets (chaos/targets.hpp) join the scenario's fault-target table
// through RunHooks, and an InvariantMonitor sweeps the standard
// invariants on a cadence plus once at teardown.
//
// Determinism: one Simulator per run, the plan fully determines the fault
// schedule, and the chaos log is assembled from fixed-format pieces —
// same plan ⇒ byte-identical log, which is what makes a shrunk replay
// file trustworthy.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "chaos/generator.hpp"
#include "chaos/invariants.hpp"
#include "chaos/plan.hpp"
#include "chaos/targets.hpp"
#include "scenario/registry.hpp"

namespace mgq::chaos {

struct ChaosOptions {
  ChaosProfile profile;
  /// Simulated horizon per run; <= 0 derives it from the scenario's own
  /// stop time (spec.run_until_seconds or the workload deadline).
  double horizon_seconds = 0.0;
  /// Seed-sweep worker threads; <= 0 uses hardware concurrency, 1 runs
  /// on the calling thread. Each run owns its Simulator, so results are
  /// identical to serial execution.
  int threads = 0;
  /// When > 0, runPlan caps the run's thread-local BufferPool at this
  /// many live bytes for the duration of the run (restored afterwards),
  /// exercising the pool-pressure degradation paths and arming the
  /// pool-ceiling invariant. Safe under runSeeds' thread pool: each run
  /// executes wholly on one worker thread, so the ceiling it sets is the
  /// one its simulation sees.
  std::int64_t pool_ceiling_bytes = 0;
  /// Runs after the chaos machinery is wired, before the simulation
  /// starts — tests use it to plant bugs (e.g. the slot-table
  /// over-admission toggle on a fault proxy). Must be thread-safe across
  /// concurrent runs; it only receives per-run objects.
  std::function<void(scenario::BuiltScenario&, ChaosTargets&)> prepare;
};

/// One executed plan.
struct ChaosRunReport {
  ChaosPlan plan;
  std::vector<InvariantViolation> violations;
  /// Deterministic chaos log: plan header + injector log + footer +
  /// violation section. Same plan ⇒ byte-identical.
  std::string log;
  /// The log records ("[WARN] ..." lines) the run emitted, captured on
  /// the thread that ran it so a sweep can print them in seed order.
  std::string warnings;
  std::uint64_t injector_fired = 0;
  std::uint64_t injector_skipped = 0;
  bool ok() const { return violations.empty(); }
};

/// A seed sweep: reports in seed order up to (and including) the first
/// failing seed, at which point the sweep stops early.
struct ChaosOutcome {
  std::vector<ChaosRunReport> reports;
  /// Index into `reports` of the first failure; -1 when every seed held.
  int failing_index = -1;
  bool ok() const { return failing_index < 0; }
  const ChaosRunReport* failure() const {
    return failing_index < 0 ? nullptr : &reports[failing_index];
  }
};

class ChaosRunner {
 public:
  explicit ChaosRunner(
      const scenario::ScenarioRegistry& registry =
          scenario::ScenarioRegistry::paper())
      : registry_(&registry) {}

  /// Executes one plan exactly (the replay path). Throws
  /// std::invalid_argument for an unknown scenario name.
  ChaosRunReport runPlan(const ChaosPlan& plan,
                         const ChaosOptions& options = {}) const;

  /// Generates and runs plans for seeds [first_seed, first_seed + count),
  /// stopping at the first invariant violation: no seed above the lowest
  /// failing one is started once it fails (scenario::runIndexed).
  ChaosOutcome runSeeds(const std::string& scenario, std::uint64_t first_seed,
                        int count, const ChaosOptions& options = {}) const;

  /// Greedy delta-debugging: removes event chunks (halving down to single
  /// events) while the candidate still reproduces a violation of the same
  /// invariant as `failing`'s first violation. Returns the minimal plan;
  /// `steps`, when given, receives the number of candidate runs.
  ChaosPlan shrink(const ChaosPlan& failing, const ChaosOptions& options = {},
                   int* steps = nullptr) const;

  /// The horizon runSeeds will use for `scenario` under `options` —
  /// exposed so callers can generate matching plans themselves.
  double resolveHorizon(const std::string& scenario,
                        const ChaosOptions& options) const;

 private:
  const scenario::ScenarioRegistry* registry_;
};

}  // namespace mgq::chaos
