#include "chaos/runner.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <thread>

#include "net/buffer.hpp"
#include "scenario/builder.hpp"
#include "scenario/runner.hpp"

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
  // plan replaces the spec's scripted faults, and its shape checks (tuned
  // for fault-free runs) are dropped.
  spec.faults.clear();
  spec.checks.clear();
  // Scripted agent crashes belong to the plan too (the "qos-agent"
  // target); resilience wiring itself stays on via spec.resil.
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
    // The spec carries no faults, so the builder made no injector; the
    // chaos run installs its own, seeded by the plan.
    built.injector =
        std::make_unique<sim::FaultInjector>(built.rig.sim, plan.seed);
    targets = registerChaosTargets(built, *built.injector,
                                   /*loss_seed=*/plan.seed * 2654435761u + 1);
    monitor = std::make_unique<InvariantMonitor>(
        built.rig.sim, options.cadence_seconds, options.max_violations);
    if (built.trace != nullptr) {
      monitor->attachTrace(built.trace.get(), options.trace_tail);
    }
    attachStandardInvariants(*monitor, built);
    monitor->arm();
    if (options.prepare) options.prepare(built, targets);
    built.injector->schedulePlan(plan.events);
  };
  hooks.before_teardown = [&](scenario::BuiltScenario& built) {
    monitor->sweep();  // teardown sweep: catch end-state violations
    report.injector_fired = built.injector->firedCount();
    report.injector_skipped = built.injector->skippedActions();
    injector_log = built.injector->logText();
    injector_footer = built.injector->logFooter();
    // The chaos machinery references rig internals (interfaces, CPU
    // scheduler, managers); release it while the rig is still alive.
    targets = ChaosTargets{};
  };

  scenario::ScenarioRunner runner(/*echo=*/nullptr);
  runner.run(spec, hooks);

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

  int threads = options.threads;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  if (threads < 1) threads = 1;
  if (threads > count) threads = count;

  // Seed batches: each batch runs `threads` seeds concurrently (one
  // Simulator per run), then the results are scanned in seed order so the
  // first failing seed is independent of thread scheduling.
  for (int batch_start = 0; batch_start < count; batch_start += threads) {
    const int batch = std::min(threads, count - batch_start);
    std::vector<ChaosRunReport> reports(batch);
    std::atomic<int> next{0};
    auto worker = [&] {
      for (int i = next.fetch_add(1); i < batch; i = next.fetch_add(1)) {
        const auto seed =
            first_seed + static_cast<std::uint64_t>(batch_start + i);
        const auto plan = generator.generate(scenario, seed, horizon);
        reports[i] = runPlan(plan, options);
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(batch);
    for (int i = 0; i < batch; ++i) pool.emplace_back(worker);
    for (auto& t : pool) t.join();

    for (auto& report : reports) {
      const bool failed = !report.ok();
      outcome.reports.push_back(std::move(report));
      if (failed) {
        outcome.failing_index =
            static_cast<int>(outcome.reports.size()) - 1;
        return outcome;
      }
    }
  }
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
