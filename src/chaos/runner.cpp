#include "chaos/runner.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "net/buffer.hpp"
#include "scenario/builder.hpp"
#include "scenario/runner.hpp"
#include "scenario/sweep.hpp"
#include "util/logging.hpp"

namespace mgq::chaos {
namespace {

/// Applies ChaosOptions::pool_ceiling_bytes to this thread's payload pool
/// for one run and restores the previous ceiling on scope exit, so a
/// capped chaos run never leaks pressure into later runs on the same
/// worker thread.
class PoolCeilingGuard {
 public:
  explicit PoolCeilingGuard(std::int64_t ceiling_bytes)
      : previous_(net::BufferPool::local().liveBytesCeiling()),
        active_(ceiling_bytes > 0) {
    if (active_) net::BufferPool::local().setLiveBytesCeiling(ceiling_bytes);
  }
  ~PoolCeilingGuard() {
    if (active_) net::BufferPool::local().setLiveBytesCeiling(previous_);
  }
  PoolCeilingGuard(const PoolCeilingGuard&) = delete;
  PoolCeilingGuard& operator=(const PoolCeilingGuard&) = delete;

 private:
  std::int64_t previous_;
  bool active_;
};

std::string buildChaosLog(const ChaosPlan& plan,
                          const std::string& injector_log,
                          const std::string& injector_footer,
                          const std::vector<InvariantViolation>& violations) {
  std::string log = "mgq-chaos-run v1\n";
  char line[160];
  log += "scenario " + plan.scenario + "\n";
  std::snprintf(line, sizeof(line), "seed %llu\n",
                static_cast<unsigned long long>(plan.seed));
  log += line;
  std::snprintf(line, sizeof(line), "horizon_s %.17g\n",
                plan.horizon_seconds);
  log += line;
  std::snprintf(line, sizeof(line), "events %zu\n", plan.events.size());
  log += line;
  log += "--- injector ---\n";
  if (!injector_log.empty()) {
    log += injector_log;
    if (injector_log.back() != '\n') log += '\n';
  }
  log += injector_footer;  // "fired=N skipped_actions=N\n"
  log += "--- violations ---\n";
  for (const auto& v : violations) {
    std::snprintf(line, sizeof(line), "t=%.6f ", v.t_seconds);
    log += line;
    log += v.name + ": " + v.message + "\n";
    for (const auto& tail : v.trace_tail) {
      log += "  trace: " + tail + "\n";
    }
  }
  std::snprintf(line, sizeof(line), "violations=%zu\n", violations.size());
  log += line;
  return log;
}

}  // namespace

double ChaosRunner::resolveHorizon(const std::string& scenario,
                                   const ChaosOptions& options) const {
  if (options.horizon_seconds > 0) return options.horizon_seconds;
  const auto* info = registry_->find(scenario);
  if (info == nullptr) {
    throw std::invalid_argument("unknown scenario: " + scenario);
  }
  return scenario::defaultRunUntilSeconds(info->make());
}

ChaosRunReport ChaosRunner::runPlan(const ChaosPlan& plan,
                                    const ChaosOptions& options) const {
  const auto* info = registry_->find(plan.scenario);
  if (info == nullptr) {
    throw std::invalid_argument("unknown scenario: " + plan.scenario);
  }
  auto spec = info->make();
  spec.seed = plan.seed;
  // Failure in a chaos run means invariant violations, nothing else: the
  // plan replaces the spec's scripted faults (agent crashes included —
  // resilience wiring itself stays on via spec.resil), and its shape
  // checks (tuned for fault-free runs) are dropped.
  spec.faults = plan.events;
  spec.fault_seed = plan.seed * 2654435761u + 1;
  spec.checks.clear();
  spec.agent_crashes.clear();
  if (plan.horizon_seconds > 0) spec.run_until_seconds = plan.horizon_seconds;
  // The monitor attaches violation context from the run's trace buffer.
  spec.observe = true;

  ChaosRunReport report;
  report.plan = plan;
  std::string injector_log, injector_footer;
  PoolCeilingGuard pool_guard(options.pool_ceiling_bytes);

  ChaosTargets targets;
  std::unique_ptr<InvariantMonitor> monitor;
  scenario::RunHooks hooks;
  hooks.on_built = [&](scenario::BuiltScenario& built) {
    // The builder scheduled the plan on the scenario's injector; the
    // chaos-only targets join its table before the first event fires.
    targets = registerChaosTargets(built);
    monitor = std::make_unique<InvariantMonitor>(built.rig.sim);
    if (built.trace != nullptr) monitor->attachTrace(built.trace.get());
    attachStandardInvariants(*monitor, built);
    monitor->arm();
    if (options.prepare) options.prepare(built, targets);
  };
  hooks.before_teardown = [&](scenario::BuiltScenario& built) {
    monitor->sweep();  // teardown sweep: catch end-state violations
    report.injector_fired = built.injector.firedCount();
    report.injector_skipped = built.injector.skippedActions();
    injector_log = built.injector.logText();
    injector_footer = built.injector.logFooter();
    // The proxies are registered with the rig's Gara; release them while
    // the rig is still alive.
    targets = ChaosTargets{};
  };

  scenario::ScenarioRunner runner(/*echo=*/nullptr);
  {
    util::LogCapture capture;
    runner.run(spec, hooks);
    report.warnings = capture.text();
  }

  if (monitor != nullptr) report.violations = monitor->violations();
  report.log =
      buildChaosLog(plan, injector_log, injector_footer, report.violations);
  return report;
}

ChaosOutcome ChaosRunner::runSeeds(const std::string& scenario,
                                   std::uint64_t first_seed, int count,
                                   const ChaosOptions& options) const {
  ChaosOutcome outcome;
  if (count <= 0) return outcome;
  const double horizon = resolveHorizon(scenario, options);
  const ChaosPlanGenerator generator(options.profile);

  // Seeds are handed out in order and each run owns its Simulator, so the
  // reports up to the first failing seed do not depend on thread count.
  std::vector<ChaosRunReport> reports(static_cast<std::size_t>(count));
  const auto ran = scenario::runIndexed(
      options.threads, reports.size(), [&](std::size_t i) {
        reports[i] = runPlan(generator.generate(scenario, first_seed + i,
                                                horizon),
                             options);
        return reports[i].ok();
      });
  reports.resize(ran);
  if (!reports.back().ok()) outcome.failing_index = static_cast<int>(ran) - 1;
  outcome.reports = std::move(reports);
  return outcome;
}

ChaosPlan ChaosRunner::shrink(const ChaosPlan& failing,
                              const ChaosOptions& options, int* steps) const {
  int runs = 0;
  const auto baseline = runPlan(failing, options);
  ++runs;
  ChaosPlan minimal = failing;
  if (baseline.ok()) {
    if (steps != nullptr) *steps = runs;
    return minimal;  // nothing to shrink: the plan does not fail
  }
  // Shrinking preserves the *failure mode*, not just "some failure": a
  // candidate only counts as reproducing when its first violation hits
  // the same invariant.
  const std::string invariant = baseline.violations.front().name;
  auto reproduces = [&](std::vector<sim::FaultEvent> events) {
    ChaosPlan candidate = failing;
    candidate.events = std::move(events);
    const auto report = runPlan(candidate, options);
    ++runs;
    return !report.violations.empty() &&
           report.violations.front().name == invariant;
  };

  auto& events = minimal.events;
  std::size_t chunk = (events.size() + 1) / 2;
  while (!events.empty() && chunk >= 1) {
    bool removed_any = false;
    for (std::size_t start = 0; start < events.size();) {
      auto candidate = events;
      const auto end =
          std::min(start + chunk, candidate.size());
      candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(start),
                      candidate.begin() + static_cast<std::ptrdiff_t>(end));
      if (reproduces(candidate)) {
        events = std::move(candidate);
        removed_any = true;  // retry the same position: it holds new events
      } else {
        start += chunk;
      }
    }
    if (chunk == 1) {
      if (!removed_any) break;  // a full single-event pass removed nothing
    } else {
      chunk = (chunk + 1) / 2;
    }
  }
  if (steps != nullptr) *steps = runs;
  return minimal;
}

}  // namespace mgq::chaos
