// Observability wiring for the GARNET rig: one call connects a rig's
// GARA + QoS agent to a metrics registry / trace buffer, installs the
// standard sampler probes on the core bottleneck qdisc, and snapshots
// end-of-run drop/forward counters from every instrumented layer.
//
// Each run has its own registry and buffer; the exporter's run label keeps
// runs apart in a merged JSON document.
#pragma once

#include <string>

#include "apps/garnet_rig.hpp"
#include "apps/bandwidth_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"

namespace mgq::apps {

/// Connects the rig's GARA and QoS agent to `metrics`/`trace` (binding the
/// trace clock to the rig's simulator) and installs the standard probes on
/// `sampler`:
///   qdisc.{ef,ll,be}_bytes          timeline of class occupancy
///   qdisc.{ef,be}_occupancy_bytes   time-weighted histograms
///   net.policed_drops               timeline (ingress edge policer)
/// The sampler must be driven by the rig's simulator; call start() after.
void attachRigObservability(GarnetRig& rig, obs::MetricsRegistry& metrics,
                            obs::TraceBuffer& trace, obs::Sampler& sampler);

/// End-of-run counter snapshot: per-class qdisc
/// enqueue/drop counts at the core bottleneck, ingress-edge policer and
/// overflow drops, router forward/no-route counts, and the premium flow's
/// TCP segment/retransmit/timeout counters as tcp.flow<src><dst>.* (when
/// connected; <src><dst> are GarnetRig::premiumSrcRank/premiumDstRank).
void snapshotRigCounters(GarnetRig& rig, obs::MetricsRegistry& metrics);

/// End-of-run adversarial data-plane snapshot: premium-edge
/// wire-fault counters (corrupted / duplicated / reordered / blackholed /
/// pool-pressure clone sheds) and the payload pool's live-bytes,
/// high-water, and ceiling-rejection gauges. Attached separately from
/// snapshotRigCounters — the scenario runner calls it only when the wire's
/// fault counters (corrupted, duplicated, reordered, blackholed) are
/// nonzero, so fault-free BENCH exports stay byte-identical.
void snapshotAdversarialCounters(GarnetRig& rig,
                                 obs::MetricsRegistry& metrics);

/// Installs cwnd/RTO/throughput probes on the rig's premium flow
/// (GarnetRig::premiumSocket):
///   flow.premium.cwnd_bytes, flow.premium.rto_ms   timelines
///   flow.premium.delivered_kbps                    per-interval rate
/// Probes report NaN (skipped) until the connection exists.
void addPremiumFlowProbes(obs::Sampler& sampler, GarnetRig& rig);

/// Copies a BandwidthTrace series into metrics.timeline(name) — used to
/// export the workload-side throughput series benches already collect.
void recordBandwidthSeries(obs::MetricsRegistry& metrics,
                           const std::string& name,
                           const std::vector<BandwidthTrace::Point>& series);

}  // namespace mgq::apps
