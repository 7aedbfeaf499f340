// End-to-end observability: a GarnetRig wired through
// attachRigObservability must surface the reservation lifecycle (GARA
// counters + trace), the QoS agent's grant, and sampled qdisc/TCP series
// for a real premium transfer.
#include <gtest/gtest.h>

#include <algorithm>

#include "apps/garnet_rig.hpp"
#include "apps/rig_obs.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"

namespace mgq::apps {
namespace {

using sim::Duration;
using sim::TimePoint;

bool hasEvent(const obs::TraceBuffer& trace, const std::string& category,
              const std::string& event) {
  return std::any_of(trace.events().begin(), trace.events().end(),
                     [&](const obs::TraceEvent& e) {
                       return e.category == category && e.event == event;
                     });
}

TEST(RigObservabilityTest, PremiumTransferProducesLifecycleAndSeries) {
  obs::MetricsRegistry metrics;
  obs::TraceBuffer trace;
  GarnetRig rig;
  obs::Sampler sampler(rig.sim, metrics, Duration::seconds(1.0));
  attachRigObservability(rig, metrics, trace, sampler);
  addPremiumFlowProbes(sampler, rig);
  sampler.start();

  PingPongStats stats;
  rig.world.launch([&](mpi::Comm& comm) -> sim::Task<> {
    if (comm.rank() == 0) {
      (void)co_await rig.requestPremium(comm, 8000.0, 5000);
    }
    co_await runPingPong(comm, 5000, TimePoint::fromSeconds(5.0),
                         comm.rank() == 0 ? &stats : nullptr);
  });
  rig.sim.runUntil(TimePoint::fromSeconds(6.0));
  sampler.stop();
  snapshotRigCounters(rig, metrics);

  // GARA lifecycle counters: the premium put reserved at least one flow.
  EXPECT_GE(metrics.counter("gara.requests").value(), 1u);
  EXPECT_GE(metrics.counter("gara.admitted").value(), 1u);
  EXPECT_GE(metrics.counter("gara.activated").value(), 1u);
  // QoS agent saw the request and granted it.
  EXPECT_GE(metrics.counter("qos.requests").value(), 1u);
  EXPECT_GE(metrics.counter("qos.granted").value(), 1u);

  // Trace: request -> admission -> activation -> grant, stamped with
  // simulated time.
  EXPECT_TRUE(hasEvent(trace, "reservation", "requested"));
  EXPECT_TRUE(hasEvent(trace, "reservation", "admitted"));
  EXPECT_TRUE(hasEvent(trace, "reservation", "activated"));
  EXPECT_TRUE(hasEvent(trace, "qos", "granted"));
  for (const auto& e : trace.events()) {
    EXPECT_GE(e.t_seconds, 0.0);
    EXPECT_LE(e.t_seconds, 6.0);
  }

  // Per-resource utilization gauge moved off zero while active.
  EXPECT_GT(metrics.gauge("gara.slot_utilization.net-forward").value(), 0.0);

  // Sampled series exist: qdisc occupancy timeline ticked every second,
  // and the premium flow's cwnd series started once connected.
  EXPECT_GE(metrics.timeline("qdisc.ef_bytes").points().size(), 5u);
  EXPECT_FALSE(metrics.timeline("flow.premium.cwnd_bytes").points().empty());

  // Snapshot counters from the net/tcp layers.
  EXPECT_GT(metrics.counter("qdisc.ef.enqueued").value(), 0u);
  EXPECT_GT(metrics.counter("tcp.flow01.segments_sent").value(), 0u);
  EXPECT_GT(stats.round_trips, 0);
}

TEST(RigObservabilityTest, RejectedReservationCountedWithReason) {
  obs::MetricsRegistry metrics;
  obs::TraceBuffer trace;
  GarnetRig rig;
  rig.gara.attachObservability(&metrics, &trace);

  gara::ReservationRequest request;
  request.start = rig.sim.now();
  request.amount = 1e12;  // far beyond premium capacity
  request.flow.dst = rig.garnet.premium_dst->id();
  auto outcome = rig.gara.reserve("net-forward", request);
  ASSERT_FALSE(outcome);

  EXPECT_EQ(metrics.counter("gara.requests").value(), 1u);
  EXPECT_EQ(metrics.counter("gara.rejected").value(), 1u);
  EXPECT_EQ(metrics.counter("gara.admitted").value(), 0u);
  ASSERT_TRUE(hasEvent(trace, "reservation", "rejected"));
  const auto it = std::find_if(
      trace.events().begin(), trace.events().end(),
      [](const obs::TraceEvent& e) { return e.event == "rejected"; });
  EXPECT_FALSE(it->detail.empty());
}

TEST(RigObservabilityTest, CancelledReservationTraced) {
  obs::MetricsRegistry metrics;
  obs::TraceBuffer trace;
  GarnetRig rig;
  rig.gara.attachObservability(&metrics, &trace);

  gara::ReservationRequest request;
  request.start = rig.sim.now();
  request.amount = 1e6;
  request.flow.dst = rig.garnet.premium_dst->id();
  auto outcome = rig.gara.reserve("net-forward", request);
  ASSERT_TRUE(outcome) << outcome.error;
  rig.gara.cancel(outcome.handle);

  EXPECT_EQ(metrics.counter("gara.cancelled").value(), 1u);
  EXPECT_TRUE(hasEvent(trace, "reservation", "cancelled"));
  // Cancellation released the slot: utilization back to zero.
  EXPECT_DOUBLE_EQ(
      metrics.gauge("gara.slot_utilization.net-forward").value(), 0.0);
}

}  // namespace
}  // namespace mgq::apps
