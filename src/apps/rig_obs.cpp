#include "apps/rig_obs.hpp"

#include <limits>

#include "net/buffer.hpp"

namespace mgq::apps {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

double classBytes(const net::Interface* iface, net::Dscp d) {
  return static_cast<double>(iface->qdisc().classQueue(d).bytes());
}

}  // namespace

void attachRigObservability(GarnetRig& rig, obs::MetricsRegistry& metrics,
                            obs::TraceBuffer& trace, obs::Sampler& sampler) {
  rig.gara.attachObservability(&metrics, &trace);
  rig.agent.attachObservability(&metrics, &trace);

  const auto* core = rig.garnet.coreBottleneckInterface();
  sampler.addProbe("qdisc.ef_bytes",
                   [core] { return classBytes(core, net::Dscp::kExpedited); });
  sampler.addProbe("qdisc.ll_bytes", [core] {
    return classBytes(core, net::Dscp::kLowLatency);
  });
  sampler.addProbe("qdisc.be_bytes", [core] {
    return classBytes(core, net::Dscp::kBestEffort);
  });
  sampler.addHistogramProbe(
      "qdisc.ef_occupancy_bytes",
      [core] { return classBytes(core, net::Dscp::kExpedited); });
  sampler.addHistogramProbe(
      "qdisc.be_occupancy_bytes",
      [core] { return classBytes(core, net::Dscp::kBestEffort); });

  const auto* edge = rig.garnet.ingressEdgeInterface();
  sampler.addProbe("net.policed_drops", [edge] {
    return static_cast<double>(edge->stats().drops_policed);
  });
}

void snapshotRigCounters(GarnetRig& rig, obs::MetricsRegistry& metrics) {
  const auto add = [&](const std::string& name, std::uint64_t value) {
    metrics.counter(name).inc(value);
  };

  const auto* core = rig.garnet.coreBottleneckInterface();
  const struct {
    const char* label;
    net::Dscp dscp;
  } classes[] = {{"ef", net::Dscp::kExpedited},
                 {"ll", net::Dscp::kLowLatency},
                 {"be", net::Dscp::kBestEffort}};
  for (const auto& c : classes) {
    const auto& qs = core->qdisc().classQueue(c.dscp).stats();
    const std::string base = std::string("qdisc.") + c.label;
    add(base + ".enqueued", qs.enqueued);
    add(base + ".dropped_overflow", qs.dropped_overflow);
    add(base + ".dropped_oversize", qs.dropped_oversize);
  }

  auto* edge = rig.garnet.ingressEdgeInterface();
  add("net.edge.drops_policed", edge->stats().drops_policed);
  add("net.edge.drops_overflow", edge->stats().drops_overflow);
  add("net.edge.rx_packets", edge->stats().rx_packets);
  const auto& policy = edge->ingressPolicy().stats();
  add("net.policy.classified", policy.classified);
  add("net.policy.marked", policy.marked);
  add("net.policy.policed_drops", policy.policed_drops);
  add("net.policy.demoted", policy.demoted);

  std::uint64_t forwarded = 0;
  std::uint64_t no_route = 0;
  for (const auto* router :
       {rig.garnet.ingress_router, rig.garnet.core_router,
        rig.garnet.egress_router}) {
    forwarded += router->stats().forwarded;
    no_route += router->stats().no_route_drops;
  }
  add("net.routers.forwarded", forwarded);
  add("net.routers.no_route_drops", no_route);

  if (auto* socket = rig.premiumSocket()) {
    const auto& ts = socket->stats();
    const std::string base = "tcp.flow" +
                             std::to_string(rig.premiumSrcRank()) +
                             std::to_string(rig.premiumDstRank()) + ".";
    add(base + "segments_sent", ts.segments_sent);
    add(base + "retransmits", ts.retransmits);
    add(base + "fast_retransmits", ts.fast_retransmits);
    add(base + "timeouts", ts.timeouts);
  }
}

void snapshotAdversarialCounters(GarnetRig& rig,
                                 obs::MetricsRegistry& metrics) {
  const auto add = [&](const std::string& name, std::uint64_t value) {
    metrics.counter(name).inc(value);
  };
  // The adversarial injectors sit on the premium egress wire: the
  // interface feeding the ingress edge router.
  const auto& ws = rig.garnet.ingressEdgeInterface()->peer()->stats();
  add("net.wire.corrupted", ws.corrupted);
  add("net.wire.duplicated", ws.duplicated);
  add("net.wire.reordered", ws.reordered);
  add("net.wire.blackholed", ws.drops_partition);
  add("net.wire.drops_pool_pressure", ws.drops_pool_pressure);
  const auto& ps = net::BufferPool::local().stats();
  add("pool.live_bytes", static_cast<std::uint64_t>(ps.live_bytes));
  add("pool.high_water_bytes",
      static_cast<std::uint64_t>(ps.high_water_bytes));
  add("pool.ceiling_rejections", ps.ceiling_rejections);
}

void addPremiumFlowProbes(obs::Sampler& sampler, GarnetRig& rig) {
  auto socket = [&rig] { return rig.premiumSocket(); };
  sampler.addProbe("flow.premium.cwnd_bytes", [socket] {
    const auto* s = socket();
    return s != nullptr ? s->cwndBytes() : kNan;
  });
  sampler.addProbe("flow.premium.rto_ms", [socket] {
    const auto* s = socket();
    return s != nullptr ? s->currentRto().toSeconds() * 1000.0 : kNan;
  });
  sampler.addRateProbe("flow.premium.delivered_kbps", [socket] {
    const auto* s = socket();
    return s != nullptr ? static_cast<double>(s->bytesDelivered()) : kNan;
  });
}

void recordBandwidthSeries(
    obs::MetricsRegistry& metrics, const std::string& name,
    const std::vector<BandwidthTrace::Point>& series) {
  auto& timeline = metrics.timeline(name);
  for (const auto& p : series) timeline.append(p.t_seconds, p.kbps);
}

}  // namespace mgq::apps
