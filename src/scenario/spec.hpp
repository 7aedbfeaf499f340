// Declarative experiment description: everything a figure/table/ablation
// run needs — rig configuration, premium flow admission, reservation
// plans, the workload script, contention and fault scripts, probe
// attachment, duration, seed, and shape checks — as one plain-data
// struct. A ScenarioBuilder turns a spec into a live GarnetRig; a
// ScenarioRunner executes it on its own Simulator, so specs are the unit
// of embarrassing parallelism for the sweep pool.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "adapt/controller.hpp"
#include "apps/garnet_rig.hpp"
#include "gq/qos_attribute.hpp"
#include "net/packet.hpp"
#include "net/token_bucket.hpp"
#include "sim/fault_injector.hpp"
#include "tcp/tcp_config.hpp"

namespace mgq::scenario {

struct ScenarioResult;  // runner.hpp

// --------------------------------------------------------------------------
// Workload scripts
// --------------------------------------------------------------------------

/// MPI ping-pong (paper §5.2) until the deadline. Inline reservations are
/// requested by *both* ranks (bidirectional QoS).
struct PingPongWorkload {
  int message_bytes = 5'000;
  double seconds = 10.0;
};

/// Distance-visualization frame stream (paper §5.3–5.5), rank 0 → rank 1.
/// Inline reservations are requested by rank 0 (unidirectional stream).
struct VisualizationWorkload {
  double frames_per_second = 10.0;
  std::int64_t frame_bytes = 5'000;
  double seconds = 20.0;
  /// >0: per-frame work on the sending host's CPU scheduler (§5.5).
  double cpu_seconds_per_frame = 0.0;
};

/// Raw TCP stream between the premium hosts with application pacing
/// (Figure 1 and the marking/shaping ablations; no MPI involved, so use
/// FlowSpec admission instead of reservations).
struct OfferedLoadTcpWorkload {
  /// Chunk size defaults to offered_bps ÷ 8 × chunk_interval.
  double offered_bps = 0.0;
  std::int64_t chunk_bytes = 0;
  double chunk_interval_seconds = 0.010;
  int chunk_count = 0;  // 0 = keep sending until the run ends
  /// Hold an absolute schedule (chunk i at i × interval) instead of
  /// sleeping a fixed gap after each chunk — a shaped burst can take
  /// nearly the whole interval to hand off.
  bool pace_absolute = false;
  /// >0: send through a gq::ShapedSocket paced to this rate.
  double shape_rate_bps = 0.0;
  double seconds = 0.0;  // goodput measurement window
  /// Socket configuration: the world's TCP config, or the override below.
  bool use_world_tcp = true;
  tcp::TcpConfig tcp;
};

/// Small request/response messages timed under bulk contention (the
/// low-latency-class ablation): kRounds requests of kPayloadBytes,
/// kGapSeconds apart. Inline reservations: both ranks.
struct PingLatencyWorkload {
  static constexpr int kPayloadBytes = 256;
  static constexpr int kRounds = 200;
  static constexpr double kGapSeconds = 0.050;
};

/// One adaptive tenant: a shaped raw-TCP bulk stream with its own path
/// reservation through the bandwidth broker, on a phase-shifting
/// bulk/idle schedule.
struct TenantSpec {
  std::string name;
  /// Initial raw wire reservation (kb/s), also the shaper's pace.
  double reservation_kbps = 4'000.0;
  /// This tenant's policy clamps (kb/s), over the controller's policy
  /// template. ceiling 0 = unlimited (admission still caps).
  double floor_kbps = 0.0;
  double ceiling_kbps = 0.0;
  /// Offered schedule: bulk_seconds on / idle_seconds off, repeating
  /// from t = 0. bulk_seconds 0 = always bulk.
  double offered_bps = 0.0;
  std::int64_t chunk_bytes = 0;  // 0 = derived from the 10 ms interval
  double bulk_seconds = 0.0;
  double idle_seconds = 0.0;
  net::PortId port = 7100;
};

struct AdaptiveTenantsWorkload {
  std::vector<TenantSpec> tenants;
  double seconds = 30.0;  // goodput measurement window
  /// Engaged: a QosController (DESIGN.md §15) resizes every tenant's path
  /// reservation at runtime; its `policy` is the template each tenant's
  /// policy is copied from. Empty: the same workload runs as the static
  /// baseline.
  std::optional<adapt::QosController::Config> controller;
};

/// The paper's §3 motivating application: a Jacobi finite-difference
/// code (apps::runFiniteDifference) "partitioned across two
/// 8-processor multiprocessors". Ranks 0-7 run on the premium source
/// host and 8-15 on the premium destination, so every halo exchange is
/// host-local except rank 7 <-> 8, the critical link across the core.
/// Inline reservations are put by ranks 7 and 8 on their pair
/// communicator. The run ends when the job does: rank 0 stops the
/// simulator after the closing barrier.
struct FiniteDifferenceWorkload {
  static constexpr int kRanksPerHost = 8;
  static constexpr int kRows = 256;
  static constexpr int kCols = 256;
  static constexpr int kIterations = 40;
};

using Workload = std::variant<PingPongWorkload, VisualizationWorkload,
                              OfferedLoadTcpWorkload, PingLatencyWorkload,
                              AdaptiveTenantsWorkload,
                              FiniteDifferenceWorkload>;

// --------------------------------------------------------------------------
// Premium admission and reservations
// --------------------------------------------------------------------------

/// A hand-built marking rule for TCP on the ingress edge (token bucket sized by
/// the paper's depth rule), bypassing GARA — Figure-1-style admission.
struct FlowSpec {
  double rate_bps = 0.0;
  double bucket_divisor = net::TokenBucket::kNormalDivisor;
  net::Dscp mark = net::Dscp::kExpedited;
  bool match_dst = true;  // false: match the premium source only
};

/// A reservation placed through the QoS agent (communicator attribute
/// put) or raw GARA (CPU). at_seconds <= 0 attribute requests are awaited
/// inline before the workload starts; later ones fire mid-run without
/// blocking it (Figures 8/9).
struct ReservationSpec {
  enum class Via {
    kQosAttribute,  // MPICH_GQ_QOS keyval → agent co-reservation
    kGaraCpu,       // gara.reserve("cpu-sender") for the workload job
  };
  Via via = Via::kQosAttribute;
  double at_seconds = 0.0;

  // --- kQosAttribute ------------------------------------------------------
  gq::QosClass qos_class = gq::QosClass::kPremium;
  double network_kbps = 0.0;  // <= 0 with kQosAttribute: no-op
  /// When true, network_kbps is the *raw wire* reservation (the paper's
  /// x-axis): the agent's protocol-overhead factor is divided out so
  /// exactly that amount gets installed. Otherwise it is the application
  /// rate, scaled up by the agent as usual.
  bool raw_network_rate = false;
  int max_message_size = 0;
  double bucket_divisor = net::TokenBucket::kNormalDivisor;

  // --- kGaraCpu -----------------------------------------------------------
  double cpu_fraction = 0.0;
};

// --------------------------------------------------------------------------
// Environment scripts
// --------------------------------------------------------------------------

struct ContentionSpec {
  bool enabled = false;
  double rate_bps = 0.0;    // 0 = rig default (saturates the core)
  double at_seconds = 0.0;  // <= 0: on before the workload starts
};

// --------------------------------------------------------------------------
// Control-plane resilience
// --------------------------------------------------------------------------

/// A scripted control-plane crash: at `at_seconds` the QoS agent and GARA
/// drop their in-memory state (lease renewals and heartbeats pause);
/// `restart_after_seconds` later the control plane restarts — journal
/// replay, anti-entropy reconciliation against every manager, then
/// re-issue of the journal-live QoS intents. The builder lowers each crash
/// into a qos-agent down/up episode of the fault plan, a target that
/// exists only when ScenarioSpec::resil is engaged.
struct AgentCrashSpec {
  double at_seconds = 0.0;
  double restart_after_seconds = 1.0;
};

/// Engaged, it wires the state journal and the reconciler behind the
/// qos-agent crash/restart fault target.
struct ResilienceSpec {
  /// Reservation leases: agent-made reservations carry this duration
  /// and must be renewed within it or enforcement hard-expires (reason
  /// "lease_expired") — what lets the data plane shed zombie
  /// reservations when their controller dies.
  std::optional<sim::Duration> lease;
  /// Heartbeat probing of every registered manager, with phi-accrual
  /// suspicion driving manager-down events into the agent's recovery.
  bool heartbeats = false;
};

// --------------------------------------------------------------------------
// Declarative shape checks
// --------------------------------------------------------------------------

struct Check {
  std::string what;
  std::function<bool(const ScenarioResult&)> pred;
};

// --------------------------------------------------------------------------
// The spec
// --------------------------------------------------------------------------

struct ScenarioSpec {
  std::string name;  // registry key; also the run label in sweeps

  apps::GarnetRig::Config rig;
  /// Simulation seed (overrides rig.seed so sweeps can vary it alone).
  std::uint64_t seed = 1;

  Workload workload;
  std::vector<FlowSpec> flows;
  std::vector<ReservationSpec> reservations;
  ContentionSpec contention;
  /// Scripted faults: a plan over the fault-target table
  /// (scenario/fault_targets.hpp), the same vocabulary chaos plans use.
  /// Entries at t <= 0 take effect while the scenario is built.
  std::vector<sim::FaultEvent> faults;
  /// Seeds the wire-fault targets' Rng streams, independent of the
  /// simulation seed so a seed sweep keeps its fault pattern.
  std::uint64_t fault_seed = 99;
  std::optional<ResilienceSpec> resil;
  std::vector<AgentCrashSpec> agent_crashes;  // need resil engaged

  /// Simulated stop time; 0 derives it from the workload (its deadline
  /// plus a drain margin).
  double run_until_seconds = 0.0;
  /// >0: snapshot delivered bytes at this time plus the grace — rate
  /// checks must not credit backlog drained after the deadline.
  double measure_at_seconds = 0.0;
  double snapshot_grace_seconds = 0.0;

  bool trace_sequences = false;  // Figure 7: attach a SequenceTracer

  /// Per-run metrics registry + trace buffer + standard rig probes.
  bool observe = true;

  std::vector<Check> checks;
};

/// Applies a named sweep parameter. Known keys: seed, seconds,
/// reservation_kbps, bucket_divisor, message_bytes, frame_bytes, fps,
/// cpu_seconds_per_frame, offered_bps, flow_rate_bps, contention_bps,
/// cpu_fraction, lease_seconds (0 drops the lease), crash_at,
/// restart_after (the last two retune the first scripted agent crash,
/// creating one when absent; lease_seconds > 0, crash_at and
/// restart_after engage resil), adapt_cadence and adapt_headroom (only
/// when an AdaptiveTenantsWorkload arms a controller), and — for that
/// workload's first tenant — bulk_seconds and idle_seconds.
/// message_bytes/frame_bytes also retune the first
/// reservation's max_message_size (they are coupled in every paper
/// experiment). Returns false for an unknown key, one that does not
/// apply to the spec's workload, or a value the key cannot take: seed
/// must be a whole number in [0, 2^53], message_bytes and frame_bytes
/// whole numbers in [1, INT_MAX], adapt_cadence > 0 and
/// adapt_headroom >= 1.
bool applyParam(ScenarioSpec& spec, const std::string& key, double value);

/// Compact value formatting for sweep labels ("4000", "1.06").
std::string paramValueLabel(double value);

}  // namespace mgq::scenario
