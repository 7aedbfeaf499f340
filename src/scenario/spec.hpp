// Declarative experiment description: everything a figure/table/ablation
// run needs — rig configuration, premium flow admission, reservation
// plans, the workload script, contention/fault/CPU-hog scripts, probe
// attachment, duration, seed, and shape checks — as one plain-data
// struct. A ScenarioBuilder turns a spec into a live GarnetRig; a
// ScenarioRunner executes it on its own Simulator, so specs are the unit
// of embarrassing parallelism for the sweep pool.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <variant>
#include <vector>

#include "apps/garnet_rig.hpp"
#include "gq/qos_attribute.hpp"
#include "net/packet.hpp"
#include "net/token_bucket.hpp"
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
  /// Send through a gq::ShapedSocket paced to shape_rate_bps.
  bool shaped = false;
  double shape_rate_bps = 0.0;
  std::int64_t shape_burst_bytes = 5'000;
  double seconds = 0.0;  // goodput measurement window
  /// Socket configuration: the world's TCP config, or the override below.
  bool use_world_tcp = true;
  tcp::TcpConfig tcp;
  net::PortId port = 7000;
};

/// Small request/response messages timed under bulk contention (the
/// low-latency-class ablation). Inline reservations: both ranks.
struct PingLatencyWorkload {
  int payload_bytes = 256;
  int rounds = 200;
  double gap_seconds = 0.050;
};

/// One adaptive tenant: a shaped raw-TCP bulk stream with its own path
/// reservation through the bandwidth broker, on a phase-shifting
/// bulk/idle schedule. Paired with AdaptationSpec the QosController
/// resizes the reservation at runtime; with adaptation off the same
/// workload runs as the static baseline.
struct TenantSpec {
  std::string name;
  /// Initial raw wire reservation (kb/s), also the shaper's pace.
  double reservation_kbps = 4'000.0;
  /// Policy clamps (kb/s). ceiling 0 = unlimited (admission still caps).
  double floor_kbps = 0.0;
  double ceiling_kbps = 0.0;
  /// Offered schedule: bulk_seconds on / idle_seconds off, repeating
  /// from phase_offset_seconds. bulk_seconds 0 = always bulk.
  double offered_bps = 0.0;
  std::int64_t chunk_bytes = 0;  // 0 = derived from the 10 ms interval
  double bulk_seconds = 0.0;
  double idle_seconds = 0.0;
  double phase_offset_seconds = 0.0;
  net::PortId port = 7100;
};

struct AdaptiveTenantsWorkload {
  std::vector<TenantSpec> tenants;
  double seconds = 30.0;  // goodput measurement window
};

using Workload = std::variant<PingPongWorkload, VisualizationWorkload,
                              OfferedLoadTcpWorkload, PingLatencyWorkload,
                              AdaptiveTenantsWorkload>;

// --------------------------------------------------------------------------
// Premium admission and reservations
// --------------------------------------------------------------------------

/// A hand-built marking rule on the ingress edge (token bucket sized by
/// the paper's depth rule), bypassing GARA — Figure-1-style admission.
struct FlowSpec {
  double rate_bps = 0.0;
  double bucket_divisor = net::TokenBucket::kNormalDivisor;
  net::Dscp mark = net::Dscp::kExpedited;
  net::Protocol proto = net::Protocol::kTcp;
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

/// A fair-share CPU competitor on the sending host.
struct CpuHogSpec {
  double at_seconds = 0.0;
};

/// A link flap on a rig fault target, driven by sim::FaultInjector.
struct FaultSpec {
  double at_seconds = 0.0;
  double outage_seconds = 0.0;
  std::uint64_t injector_seed = 42;
  std::string target = "premium-edge-link";
};

/// Adversarial data-plane conditions (DESIGN.md §14): seeded corruption /
/// duplication / reorder injectors on the premium source's egress wire, an
/// optional directional partition window with heal, and an optional
/// live-bytes ceiling on the run's payload pool. Everything defaults off,
/// and a disabled spec builds a byte-identical scenario (golden-catalog
/// safe). Rates are per-packet probabilities on the egress wire.
struct AdversarialSpec {
  double corrupt_rate = 0.0;
  double duplicate_rate = 0.0;
  double reorder_rate = 0.0;
  /// Maximum extra hold applied to a reordered packet.
  double reorder_max_extra_seconds = 0.005;
  /// Blackhole the premium egress at partition_at (< 0 disables), heal it
  /// at heal_at (only when later than the cut; otherwise the partition
  /// holds until teardown).
  double partition_at_seconds = -1.0;
  double heal_at_seconds = -1.0;
  /// Seeds the injectors' splitmix-derived Rng streams, independent of
  /// the simulation seed so a seed sweep keeps its fault pattern.
  std::uint64_t seed = 99;
  /// > 0: cap the run's thread-local BufferPool at this many live bytes
  /// (restored when the built scenario is destroyed).
  std::int64_t pool_ceiling_bytes = 0;

  bool enabled() const {
    return corrupt_rate > 0 || duplicate_rate > 0 || reorder_rate > 0 ||
           partition_at_seconds >= 0 || pool_ceiling_bytes > 0;
  }
};

// --------------------------------------------------------------------------
// Adaptive QoS control plane (src/adapt/, DESIGN.md §15)
// --------------------------------------------------------------------------

/// Arms the QosController over an AdaptiveTenantsWorkload's path
/// reservations. Disabled (the default) builds the identical static rig,
/// and non-adaptive workloads ignore it entirely — golden-catalog safe.
struct AdaptationSpec {
  bool enabled = false;
  double cadence_seconds = 0.5;
  double headroom = 1.25;
  double ewma_alpha = 0.4;
  double grow_threshold = 1.05;
  double shrink_threshold = 0.70;
  double grow_multiplier = 1.6;
  double shrink_step = 0.5;
  double grow_cooldown_seconds = 1.0;
  double shrink_cooldown_seconds = 2.0;
};

// --------------------------------------------------------------------------
// Control-plane resilience
// --------------------------------------------------------------------------

/// Reservation leases: agent-made reservations must be renewed within the
/// lease window or enforcement hard-expires (reason "lease_expired") —
/// what lets the data plane shed zombie reservations when their
/// controller dies.
struct LeaseSpec {
  bool enabled = false;
  double duration_seconds = 2.0;
  double renew_fraction = 0.5;
  double grace_seconds = 0.25;
};

/// A scripted control-plane crash: at `at_seconds` the QoS agent and GARA
/// drop their in-memory state (lease renewals and heartbeats pause);
/// `restart_after_seconds` later the control plane restarts — journal
/// replay, anti-entropy reconciliation against every manager, then
/// re-issue of the journal-live QoS intents.
struct AgentCrashSpec {
  double at_seconds = 0.0;
  double restart_after_seconds = 1.0;
};

struct ResilienceSpec {
  /// Journal + reconciler wiring. Leases, heartbeats, or any scripted
  /// agent crash imply it.
  bool journal = false;
  LeaseSpec lease;
  /// Heartbeat probing of every registered manager, with phi-accrual
  /// suspicion driving manager-down events into the RecoveryPolicy.
  bool heartbeats = false;
  double heartbeat_interval_seconds = 0.25;
  double phi_threshold = 2.0;

  bool enabled() const {
    return journal || lease.enabled || heartbeats;
  }
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
  std::string name;       // registry key; also the run label in sweeps
  std::string title;      // banner line
  std::string paper_ref;  // which figure/table/claim this reproduces

  apps::GarnetRig::Config rig;
  /// Simulation seed (overrides rig.seed so sweeps can vary it alone).
  std::uint64_t seed = 1;

  Workload workload;
  std::vector<FlowSpec> flows;
  std::vector<ReservationSpec> reservations;
  ContentionSpec contention;
  std::vector<CpuHogSpec> cpu_hogs;
  std::vector<FaultSpec> faults;
  AdversarialSpec adversarial;
  AdaptationSpec adaptation;
  ResilienceSpec resil;
  std::vector<AgentCrashSpec> agent_crashes;  // forces resil wiring on

  /// Simulated stop time; 0 derives it from the workload (its deadline
  /// plus a drain margin).
  double run_until_seconds = 0.0;
  /// >0: snapshot delivered bytes at this time plus the grace — rate
  /// checks must not credit backlog drained after the deadline.
  double measure_at_seconds = 0.0;
  double snapshot_grace_seconds = 0.0;

  bool trace_sequences = false;       // Figure 7: attach a SequenceTracer
  double trace_attach_seconds = 0.5;  // once the connection exists

  /// Per-run metrics registry + trace buffer + standard rig probes.
  bool observe = true;
  double sample_interval_seconds = 1.0;

  std::vector<Check> checks;
};

/// Applies a named sweep parameter. Known keys: seed, seconds,
/// reservation_kbps, bucket_divisor, message_bytes, frame_bytes, fps,
/// cpu_seconds_per_frame, offered_bps, flow_rate_bps, contention_bps,
/// cpu_fraction, lease_seconds, crash_at, restart_after (the last two
/// retune the first scripted agent crash, creating one when absent),
/// adapt_cadence, adapt_headroom, and — for AdaptiveTenantsWorkload's
/// first tenant — bulk_seconds and idle_seconds.
/// message_bytes/frame_bytes also retune the first
/// reservation's max_message_size (they are coupled in every paper
/// experiment). Returns false for an unknown key, one that does not
/// apply to the spec's workload, or a value an integer key cannot take:
/// seed must be a whole number in [0, 2^53], message_bytes and
/// frame_bytes whole numbers in [1, INT_MAX].
bool applyParam(ScenarioSpec& spec, const std::string& key, double value);

/// Compact value formatting for sweep labels ("4000", "1.06").
std::string paramValueLabel(double value);

}  // namespace mgq::scenario
