// The adaptive QoS control loop (DESIGN.md §15): closes the loop the
// paper's future-work section leaves open ("adapt execution strategies or
// change reservations") by driving BandwidthBroker::modify + ShapedSocket
// re-pacing from measured demand.
//
// One QosController runs per agent/rig. Each cadence tick it:
//   1. samples every tenant's DemandEstimator and asks its
//      AdaptationPolicy for a decision;
//   2. applies shrinks first — freeing capacity into the arbiter's pool
//      before anyone grows;
//   3. asks the BandwidthArbiter for a max-min fair split of the
//      remaining headroom across the grow wants;
//   4. applies grows, re-paces each tenant's shaper to the new amount,
//      and emits qos.adapt.* counters and trace events.
// A refused modify is never an error: the policy backs off (doubling
// grow cooldown) and the reservation keeps running at its old amount.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "adapt/arbiter.hpp"
#include "adapt/demand.hpp"
#include "adapt/policy.hpp"
#include "gara/bandwidth_broker.hpp"
#include "gq/shaper.hpp"
#include "sim/simulator.hpp"

namespace mgq::obs {
class MetricsRegistry;
class TraceBuffer;
}  // namespace mgq::obs

namespace mgq::adapt {

class QosController {
 public:
  struct Config {
    /// Control-loop tick interval (simulated seconds, > 0).
    double cadence_seconds = 0.5;
    /// Policy defaults applied to tenants that do not override.
    AdaptationPolicy::Config policy;
  };

  struct TenantConfig {
    std::string name;
    AdaptationPolicy::Config policy;
    DemandEstimator::Inputs inputs;
    /// Shaper to re-pace after a successful modify; optional. Must outlive
    /// the controller.
    gq::ShapedSocket* shaper = nullptr;
  };

  QosController(sim::Simulator& sim, gara::BandwidthBroker& broker,
                BandwidthArbiter& arbiter, Config config);

  /// Registers a tenant driving `path` (builder-owned; must stay at a
  /// stable address and outlive the controller). Returns the tenant index.
  /// Callable mid-run: the tenant joins at the next tick.
  std::size_t addTenant(TenantConfig config,
                        gara::BandwidthBroker::PathReservation* path);

  /// Counters (qos.adapt.grow/shrink/refused/clamped/ticks/orphaned),
  /// per-tenant reservation/demand timelines, and "adapt" trace events.
  /// Either pointer may be null; both must outlive the controller. Call
  /// before start() so the first tick is recorded.
  void attachObservability(obs::MetricsRegistry* metrics,
                           obs::TraceBuffer* trace);

  /// Spawns the control-loop coroutine on the simulator. Idempotent.
  void start();
  /// Stops the loop at its next tick boundary.
  void stop() { running_ = false; }

  std::uint64_t ticks() const { return ticks_; }
  BandwidthArbiter& arbiter() { return *arbiter_; }
  const Config& config() const { return config_; }

  /// Snapshot of one tenant for results/tests.
  struct TenantView {
    std::string name;
    double initial_bps = 0.0;
    double current_bps = 0.0;
    std::uint64_t grows = 0;
    std::uint64_t shrinks = 0;
    std::uint64_t refused = 0;
    std::uint64_t clamped = 0;
    DemandSample sample;
  };
  std::vector<TenantView> tenantViews() const;

  /// The path reservations under this controller's management — the chaos
  /// no-over-admission invariant walks these.
  std::vector<const gara::BandwidthBroker::PathReservation*>
  managedReservations() const;

 private:
  struct Tenant {
    std::string name;
    gara::BandwidthBroker::PathReservation* path;
    AdaptationPolicy policy;
    DemandEstimator estimator;
    gq::ShapedSocket* shaper = nullptr;
    double initial_bps = 0.0;
    /// Cleared permanently when the path dies under the controller
    /// (cancelled/failed by chaos): the loop skips dead tenants instead
    /// of resizing a terminal reservation.
    bool active = true;
    std::uint64_t grows = 0;
    std::uint64_t shrinks = 0;
    std::uint64_t refused = 0;
    std::uint64_t clamped = 0;
  };

  sim::Task<> controlLoop();
  void tick();
  /// Live amount of a tenant's reservation, or < 0 when the path is gone
  /// (empty, or a leg in a terminal state).
  static double currentBps(const Tenant& tenant);
  void applyResize(Tenant& tenant, AdaptAction action, double new_amount,
                   bool clamped, double now_seconds);
  void countEvent(const char* name);
  void traceEvent(const char* event, const std::string& tenant,
                  double value, const char* detail);

  sim::Simulator* sim_;
  gara::BandwidthBroker* broker_;
  BandwidthArbiter* arbiter_;
  Config config_;
  std::vector<std::unique_ptr<Tenant>> tenants_;
  bool running_ = false;
  bool started_ = false;
  std::uint64_t ticks_ = 0;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::TraceBuffer* trace_ = nullptr;
};

}  // namespace mgq::adapt
