// Spec factories for the paper's experiments. The suites build their
// grids from these (varying reservation/message/frame parameters); the
// registry names the canonical instances for the mgq_scenarios CLI.
#pragma once

#include <cstdint>
#include <string>

#include "scenario/spec.hpp"

namespace mgq::scenario {

/// Figure 1: application-paced premium TCP flow (50 Mb/s offered through
/// a hand-built marking rule of `reservation_bps`) under contention.
ScenarioSpec offeredLoadFlowSpec(const std::string& name,
                                 double reservation_bps,
                                 double offered_bps = 50e6,
                                 double seconds = 100.0);

/// Figure 5: ping-pong under contention with a raw network reservation
/// of `reservation_kbps` (0 = none) for `message_bytes` messages.
ScenarioSpec pingPongSpec(const std::string& name, double reservation_kbps,
                          int message_bytes, double seconds = 10.0);

/// Figures 6 / Table 1 / bucket-divisor ablation: visualization stream
/// under contention with a raw network reservation; throughput measured
/// at the deadline (+grace), not after the backlog drains.
ScenarioSpec visualizationSpec(
    const std::string& name, double reservation_kbps,
    double frames_per_second, std::int64_t frame_bytes, double seconds = 20.0,
    double bucket_divisor = net::TokenBucket::kNormalDivisor,
    double snapshot_grace_seconds = 0.0);

/// Figure 7: uncontended visualization stream with a TCP sequence trace.
ScenarioSpec burstTraceSpec(const std::string& name, double frames_per_second,
                            std::int64_t frame_bytes);

/// Figure 8: 15 Mb/s stream; CPU hog at t=10 s, 90% DSRT reservation at
/// t=20 s. Includes the paper's phase checks.
ScenarioSpec fig8Spec();

/// Figure 9: 35 Mb/s stream; net congestion @10 s, net reservation
/// @21 s, CPU hog @31 s, CPU reservation @41 s. Includes phase checks.
ScenarioSpec fig9Spec();

/// §3's motivating application: the finite-difference code on two
/// 8-rank SMP hosts under the rig's UDP contention, with premium QoS on
/// the rank 7 <-> 8 pair communicator. Checks that the job computes the
/// single-process reference answer; the `fd` suite compares it against
/// the same spec without the reservation.
ScenarioSpec fdCriticalLinkSpec();

/// Priority-queuing ablation: 5 Mb/s token-bucket admission, marked EF or
/// deliberately left best effort, under saturating contention.
ScenarioSpec priorityQueuingSpec(const std::string& name, bool mark_ef);

/// Source-shaping ablation: 50 KB bursts through a 1.7 Mb/s premium rule
/// with the shallow (normal) bucket, shaped to the reserved rate or raw.
ScenarioSpec sourceShapingSpec(const std::string& name, bool shaped);

/// Low-latency-class ablation: 256 B request/response under bulk
/// contention, best-effort or marked into the low-latency class.
ScenarioSpec pingLatencySpec(const std::string& name, bool low_latency);

/// Fault-recovery scenario: the Figure-1 rig with a premium visualization
/// stream and a 3 s edge-link flap at t=20 s, with the QoS agent's
/// recovery on or off. Includes per-run state/goodput checks.
ScenarioSpec faultRecoverySpec(const std::string& name, bool recovery_on);

/// Adversarial-wire scenario: the Figure-1 premium flow with seeded
/// per-packet corruption on its egress wire. Checks that the TCP
/// checksum wall drops every corrupted segment (counted, never
/// delivered — zero connection resets) while the flow keeps a goodput
/// floor through NewReno recovery.
ScenarioSpec adversarialCorruptionSpec(const std::string& name);

/// Partition/heal scenario: the Figure-1 premium flow with a directional
/// blackhole on its egress at t=8 s, healed at t=16 s. Checks that the
/// partition actually blackholes traffic and that goodput reconverges
/// after the heal (retransmission state survives the outage).
ScenarioSpec partitionHealSpec(const std::string& name);

/// Crash-recovery scenario: the fault-recovery rig with the full
/// control-plane resilience stack (journal, 2 s leases, heartbeats); the
/// QoS agent and GARA crash at t=20 s and restart at t=25 s. Checks that
/// leases hard-expire enforcement during the outage and the restart
/// replays the journal, reconciles, re-issues the intent, and re-grants.
ScenarioSpec crashRecoverySpec(const std::string& name);

/// Adaptive-QoS scenario (DESIGN.md §15): one tenant offering 20 Mb/s in
/// bulk(10 s)/idle(10 s)/bulk phases behind a deliberately small 4 Mb/s
/// initial reservation. With `adaptive` the QosController grows the
/// reservation toward demand x headroom during bulk phases and reclaims
/// it during idle; with adaptive=false the reservation stays static (the
/// baseline the tests compare against).
ScenarioSpec adaptPhaseShiftSpec(const std::string& name,
                                 bool adaptive = true);

/// Adaptive-QoS arbitration scenario (DESIGN.md §15): a "hungry" tenant
/// (8 Mb/s reserved, 30 Mb/s offered throughout) shares the premium core
/// with a "fading" tenant (28 Mb/s reserved, bulk for 8 s then idle).
/// With `adaptive` the controller shrinks the fading tenant's idle
/// reservation and the arbiter re-grants the reclaimed capacity to the
/// hungry tenant max-min-fairly; with adaptive=false both reservations
/// stay static.
ScenarioSpec adaptTwoTenantTradeoffSpec(const std::string& name,
                                        bool adaptive = true);

}  // namespace mgq::scenario
