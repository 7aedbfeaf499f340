// ScenarioRunner: executes one ScenarioSpec per fresh Simulator and
// returns a structured ScenarioResult — the workload's series and stats,
// end-of-run rig counters, QoS agent state, fault-injector log, check
// verdicts, and (when observing) the per-run metrics registry + trace
// buffer for BENCH JSON export.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "apps/bandwidth_trace.hpp"
#include "apps/workloads.hpp"
#include "gq/qos_attribute.hpp"
#include "net/node.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scenario/check.hpp"
#include "scenario/spec.hpp"
#include "tcp/tcp_config.hpp"

namespace mgq::scenario {

struct ScenarioResult {
  std::string name;
  std::uint64_t seed = 0;
  /// The workload's measurement window in seconds (goodput denominator).
  double seconds = 0.0;

  // Workload-side measurements.
  std::vector<apps::BandwidthTrace::Point> series;
  std::vector<apps::SequenceTracer::Point> sequence_trace;
  std::vector<double> rtt_ms;
  /// FiniteDifferenceWorkload: rank 0's result (its checksum is the
  /// global one) and the seconds from the opening barrier to the closing
  /// one. Both stay zero when the job did not finish.
  apps::FiniteDifferenceResult fd;
  double fd_seconds = 0.0;
  /// fd_seconds per iteration in ms (0 when the job did not finish).
  double fdIterationMs() const {
    return fd.iterations > 0 ? fd_seconds * 1000.0 / fd.iterations : 0.0;
  }

  /// Receiver-side byte count at the end of the run.
  std::int64_t delivered_bytes = 0;
  /// Headline delivered application rate over `seconds`, using the
  /// measure_at snapshot when one was taken.
  double goodput_kbps = 0.0;

  std::uint64_t policer_drops = 0;
  std::uint64_t tcp_timeouts = 0;

  /// The premium source's egress wire: its corrupted/duplicated/
  /// reordered/drops_partition totals stay zero unless the fault plan
  /// armed a wire-fault target.
  net::InterfaceStats wire;
  /// The offered-load receiving socket's counters (checksum drops,
  /// resets); zero for workloads without that receiver.
  tcp::TcpStats receiver_tcp;

  gq::QosRequestState qos_state = gq::QosRequestState::kNone;
  int recovery_attempts = 0;
  std::string injector_log;

  /// Per-tenant outcomes of an AdaptiveTenantsWorkload (empty otherwise).
  /// grows/shrinks/refused/clamped stay zero in static-baseline runs;
  /// totals are sums over this list.
  struct TenantOutcome {
    std::string name;
    std::int64_t delivered_bytes = 0;
    double goodput_kbps = 0.0;
    double initial_kbps = 0.0;
    double final_kbps = 0.0;
    std::uint64_t grows = 0;
    std::uint64_t shrinks = 0;
    std::uint64_t refused = 0;
    std::uint64_t clamped = 0;
  };
  std::vector<TenantOutcome> tenants;
  const TenantOutcome* tenant(const std::string& name) const {
    for (const auto& t : tenants) {
      if (t.name == name) return &t;
    }
    return nullptr;
  }
  /// Controller ticks (zero without a controller).
  std::uint64_t adapt_ticks = 0;

  /// Simulator::eventsExecuted() at the end of the run. A pure function
  /// of the spec — the golden-determinism guard pins it per scenario to
  /// catch silent event reordering in the kernel.
  std::uint64_t events_executed = 0;

  std::vector<CheckResult> checks;

  /// Per-run scoped observability (null when the spec disabled it).
  std::shared_ptr<obs::MetricsRegistry> metrics;
  std::shared_ptr<obs::TraceBuffer> trace;

  /// Mean of the bandwidth series over points with t in (from, to].
  double meanKbps(double from_seconds, double to_seconds) const;
  bool checksPassed() const;
};

struct BuiltScenario;  // builder.hpp

/// Optional instrumentation points around a run — how the chaos subsystem
/// attaches fault targets and invariant monitors without the runner
/// depending on it.
struct RunHooks {
  /// After build(), before the simulator runs: swap in fault proxies,
  /// arm monitors. The rig has not processed any event yet.
  std::function<void(BuiltScenario&)> on_built;
  /// After runUntil() returns, while the rig is still alive: teardown
  /// invariant sweeps, final state collection.
  std::function<void(BuiltScenario&)> before_teardown;
};

class ScenarioRunner {
 public:
  /// `echo`, when set, receives one PASS/FAIL line per spec check as the
  /// run finishes. Sweep workers pass nullptr so output never interleaves.
  explicit ScenarioRunner(std::ostream* echo = nullptr) : echo_(echo) {}

  ScenarioResult run(const ScenarioSpec& spec) { return run(spec, {}); }
  ScenarioResult run(const ScenarioSpec& spec, const RunHooks& hooks);

 private:
  std::ostream* echo_;
};

/// The stop time a spec's run will use: spec.run_until_seconds when set,
/// otherwise the workload deadline plus its drain margin. Exported so the
/// chaos subsystem can generate fault plans over the exact horizon the
/// runner will execute.
double defaultRunUntilSeconds(const ScenarioSpec& spec);

/// Rows for obs::writeMultiRunJson — one per result that carries a
/// per-run registry, labelled by scenario name. The results must outlive
/// the returned views.
std::vector<obs::RunExport> runExports(
    const std::vector<ScenarioResult>& results);

}  // namespace mgq::scenario
