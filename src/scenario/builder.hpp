// ScenarioBuilder: turns a ScenarioSpec into a live GarnetRig with the
// workload spawned and every scripted event scheduled, ready for
// runUntil(). All state is owned by the returned BuiltScenario — no
// globals — so any number of built scenarios can run concurrently, each
// on its own Simulator.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "adapt/arbiter.hpp"
#include "adapt/controller.hpp"
#include "apps/bandwidth_trace.hpp"
#include "apps/garnet_rig.hpp"
#include "apps/workloads.hpp"
#include "gara/bandwidth_broker.hpp"
#include "cpu/cpu_scheduler.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "resil/heartbeat.hpp"
#include "resil/journal.hpp"
#include "resil/lease.hpp"
#include "resil/reconciler.hpp"
#include "scenario/fault_targets.hpp"
#include "scenario/spec.hpp"
#include "sim/fault_injector.hpp"
#include "tcp/tcp_socket.hpp"

namespace mgq::scenario {

struct BuiltScenario {
  BuiltScenario(const apps::GarnetRig::Config& config, int ranks_per_host)
      : rig(config, ranks_per_host), injector(rig.sim) {}

  apps::GarnetRig rig;
  /// Drives every fault of the run, scripted or chaos, over the
  /// fault-target table (scenario/fault_targets.hpp).
  sim::FaultInjector injector;
  FaultTargets fault_targets;

  // Per-run observability (spec.observe). Shared pointers because the
  // ScenarioResult hands them to the exporter after the rig is gone.
  std::shared_ptr<obs::MetricsRegistry> metrics;
  std::shared_ptr<obs::TraceBuffer> trace;
  std::unique_ptr<obs::Sampler> sampler;

  // Workload state.
  apps::PingPongStats pingpong;
  apps::VisualizationStats viz;
  std::vector<double> rtt_ms;
  apps::FiniteDifferenceResult fd;
  double fd_seconds = 0.0;
  std::unique_ptr<tcp::TcpListener> listener;
  tcp::TcpSocket* receiver = nullptr;  // offered-load receiving socket
  std::uint64_t tcp_timeouts = 0;
  mpi::Comm* comm0 = nullptr;  // rank 0's world communicator, once launched
  cpu::JobId cpu_job = 0;
  gq::QosAttribute qos_attr;  // storage for non-premium / scheduled puts

  // Control-plane resilience (spec.resil): journal, reconciler, and the
  // optional leases and heartbeats behind the "qos-agent" and
  // "lease-renewals" fault targets. Null when spec.resil is empty.
  struct ControlPlaneResilience {
    std::unique_ptr<resil::StateJournal> journal;
    std::unique_ptr<resil::LeaseManager> leases;
    std::unique_ptr<resil::HeartbeatMonitor> heartbeats;
    std::unique_ptr<resil::Reconciler> reconciler;
    bool crashed = false;
  };
  std::unique_ptr<ControlPlaneResilience> resil;

  // Adaptive QoS control plane (AdaptiveTenantsWorkload, DESIGN.md §15).
  // Null for every other workload, so legacy scenarios build
  // byte-identically.
  struct AdaptiveTenantRun {
    TenantSpec spec;
    std::unique_ptr<tcp::TcpListener> listener;
    tcp::TcpSocket* receiver = nullptr;
    std::unique_ptr<tcp::TcpSocket> socket;    // client side, once connected
    std::unique_ptr<gq::ShapedSocket> shaper;  // paces to the reservation
    gara::BandwidthBroker::PathReservation path;
    double initial_bps = 0.0;
    std::size_t controller_index = 0;
  };
  struct Adaptation {
    /// Accounting-only manager for the shared core EF share; the path is
    /// enforcing edge ("net-forward") + this interior link ("core-ef").
    std::unique_ptr<gara::LinkAccountingManager> core_ef;
    std::unique_ptr<gara::BandwidthBroker> broker;
    std::unique_ptr<adapt::BandwidthArbiter> arbiter;
    /// Null when the workload's controller is empty (static baseline).
    std::unique_ptr<adapt::QosController> controller;
    std::vector<std::unique_ptr<AdaptiveTenantRun>> tenants;
  };
  std::unique_ptr<Adaptation> adapt;

  // Measurement.
  std::function<std::int64_t()> delivered_fn;  // receiver-side byte count
  std::unique_ptr<apps::BandwidthTrace> bandwidth;
  apps::SequenceTracer tracer;
  std::int64_t delivered_at_measure = -1;

  std::int64_t deliveredBytes() const {
    return delivered_fn ? delivered_fn() : 0;
  }
};

class ScenarioBuilder {
 public:
  std::unique_ptr<BuiltScenario> build(const ScenarioSpec& spec);
};

}  // namespace mgq::scenario
