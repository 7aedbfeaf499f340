#include "scenario/runner.hpp"

#include <utility>
#include <variant>

#include "apps/rig_obs.hpp"
#include "net/buffer.hpp"
#include "scenario/builder.hpp"

namespace mgq::scenario {
namespace {

/// The workload's measurement window (goodput denominator).
double measurementSeconds(const ScenarioSpec& spec) {
  return std::visit(
      [](const auto& w) -> double {
        using W = std::decay_t<decltype(w)>;
        if constexpr (std::is_same_v<W, PingLatencyWorkload> ||
                      std::is_same_v<W, FiniteDifferenceWorkload>) {
          return 0.0;
        } else {
          return w.seconds;
        }
      },
      spec.workload);
}

}  // namespace

/// Default stop time: the workload deadline plus a drain margin
/// (ping-pong +60 s, visualization +120 s so late backlogs finish
/// before teardown).
double defaultRunUntilSeconds(const ScenarioSpec& spec) {
  if (spec.run_until_seconds > 0) return spec.run_until_seconds;
  return std::visit(
      [](const auto& w) -> double {
        using W = std::decay_t<decltype(w)>;
        if constexpr (std::is_same_v<W, PingPongWorkload>) {
          return w.seconds + 60.0;
        } else if constexpr (std::is_same_v<W, VisualizationWorkload>) {
          return w.seconds + 120.0;
        } else if constexpr (std::is_same_v<W, OfferedLoadTcpWorkload>) {
          return w.seconds > 0 ? w.seconds : 60.0;
        } else if constexpr (std::is_same_v<W, AdaptiveTenantsWorkload>) {
          return w.seconds + 5.0;
        } else {
          return 120.0;
        }
      },
      spec.workload);
}

double ScenarioResult::meanKbps(double from_seconds, double to_seconds) const {
  double sum = 0;
  int n = 0;
  for (const auto& p : series) {
    if (p.t_seconds > from_seconds && p.t_seconds <= to_seconds) {
      sum += p.kbps;
      ++n;
    }
  }
  return n == 0 ? 0.0 : sum / n;
}

bool ScenarioResult::checksPassed() const {
  for (const auto& c : checks) {
    if (!c.ok) return false;
  }
  return true;
}

ScenarioResult ScenarioRunner::run(const ScenarioSpec& spec,
                                   const RunHooks& hooks) {
  // The export's pool high-water must be this run's: runs share their
  // thread's pool, and sweeps hand runs to threads in any order.
  net::BufferPool::local().resetHighWater();
  ScenarioBuilder builder;
  auto built = builder.build(spec);
  auto& rig = built->rig;

  if (hooks.on_built) hooks.on_built(*built);

  rig.sim.runUntil(sim::TimePoint::fromSeconds(defaultRunUntilSeconds(spec)));

  if (hooks.before_teardown) hooks.before_teardown(*built);

  const auto& wire = rig.garnet.ingressEdgeInterface()->peer()->stats();
  if (built->sampler != nullptr) {
    built->sampler->stop();
    apps::snapshotRigCounters(rig, *built->metrics);
    // Wire/pool gauges ride only on runs whose wire faults fired, so every
    // fault-free scenario's BENCH export (and its golden hash) stays
    // byte-identical.
    if (wire.corrupted + wire.duplicated + wire.reordered +
            wire.drops_partition >
        0) {
      apps::snapshotAdversarialCounters(rig, *built->metrics);
    }
  }

  ScenarioResult result;
  result.name = spec.name;
  result.seed = spec.seed;
  result.seconds = measurementSeconds(spec);
  if (built->bandwidth != nullptr) result.series = built->bandwidth->series();
  result.sequence_trace = built->tracer.series();
  result.rtt_ms = std::move(built->rtt_ms);
  result.fd = built->fd;
  result.fd_seconds = built->fd_seconds;
  result.delivered_bytes = built->deliveredBytes();
  const std::int64_t measured = built->delivered_at_measure >= 0
                                    ? built->delivered_at_measure
                                    : result.delivered_bytes;
  if (result.seconds > 0) {
    result.goodput_kbps =
        static_cast<double>(measured) * 8.0 / result.seconds / 1000.0;
  }
  result.policer_drops =
      rig.garnet.ingressEdgeInterface()->stats().drops_policed;
  result.tcp_timeouts = built->tcp_timeouts;
  if (built->receiver != nullptr) {
    result.receiver_tcp = built->receiver->stats();
  }
  result.wire = wire;
  if (built->comm0 != nullptr) {
    const auto status = rig.agent.status(*built->comm0);
    result.qos_state = status.state;
    result.recovery_attempts = status.recovery_attempts;
  }
  if (built->adapt != nullptr) {
    std::vector<adapt::QosController::TenantView> views;
    if (built->adapt->controller != nullptr) {
      views = built->adapt->controller->tenantViews();
      result.adapt_ticks = built->adapt->controller->ticks();
    }
    for (const auto& run : built->adapt->tenants) {
      ScenarioResult::TenantOutcome out;
      out.name = run->spec.name;
      out.delivered_bytes =
          run->receiver != nullptr ? run->receiver->bytesDelivered() : 0;
      if (result.seconds > 0) {
        out.goodput_kbps = static_cast<double>(out.delivered_bytes) * 8.0 /
                           result.seconds / 1000.0;
      }
      out.initial_kbps = run->initial_bps / 1000.0;
      bool live = !run->path.handles.empty();
      for (const auto& leg : run->path.handles) {
        if (leg == nullptr || gara::isTerminal(leg->state())) live = false;
      }
      if (live) {
        out.final_kbps = run->path.handles.front()->request().amount / 1000.0;
      }
      if (run->controller_index < views.size()) {
        const auto& v = views[run->controller_index];
        out.grows = v.grows;
        out.shrinks = v.shrinks;
        out.refused = v.refused;
        out.clamped = v.clamped;
      }
      result.tenants.push_back(std::move(out));
    }
  }
  result.injector_log = built->injector.logText();
  result.events_executed = rig.sim.eventsExecuted();
  if (built->metrics != nullptr) {
    apps::recordBandwidthSeries(*built->metrics, "workload.delivered_kbps",
                                result.series);
    result.metrics = built->metrics;
    result.trace = built->trace;
  }

  CheckReporter reporter(echo_);
  for (const auto& c : spec.checks) {
    reporter.check(c.pred(result), spec.name + ": " + c.what);
  }
  result.checks = reporter.results();
  return result;
}

std::vector<obs::RunExport> runExports(
    const std::vector<ScenarioResult>& results) {
  std::vector<obs::RunExport> runs;
  for (const auto& r : results) {
    if (r.metrics == nullptr) continue;
    runs.push_back(obs::RunExport{r.name, r.metrics.get(), r.trace.get()});
  }
  return runs;
}

}  // namespace mgq::scenario
