// End-to-end QoS behaviour: miniature versions of the paper's experiments
// asserting the qualitative claims (the full-scale reproductions are the
// suites in src/scenario/suites.cpp).
#include <gtest/gtest.h>

#include "apps/garnet_rig.hpp"
#include "apps/bandwidth_trace.hpp"
#include "gq/shaper.hpp"

namespace mgq::gq {
namespace {

using apps::GarnetRig;
using apps::PingPongStats;
using apps::VisualizationConfig;
using apps::VisualizationStats;
using sim::Duration;
using sim::Task;
using sim::TimePoint;

// Ping-pong one-way goodput (kb/s) under saturating contention with the
// given per-direction reservation (0 = none).
double pingPongGoodput(double reservation_kbps, int message_bytes,
                       double seconds = 10.0) {
  GarnetRig rig;
  rig.startContention();
  PingPongStats stats;
  rig.world.launch([&](mpi::Comm& comm) -> Task<> {
    if (reservation_kbps > 0) {
      const bool ok = co_await rig.requestPremium(comm, reservation_kbps,
                                                  message_bytes);
      EXPECT_TRUE(ok);
    }
    co_await apps::runPingPong(comm, message_bytes,
                               TimePoint::fromSeconds(seconds),
                               comm.rank() == 0 ? &stats : nullptr);
  });
  rig.sim.runUntil(TimePoint::fromSeconds(seconds + 30));
  return stats.oneWayThroughputKbps(seconds);
}

TEST(EndToEndQosTest, ReservationRescuesPingPongUnderContention) {
  // Without a reservation the contended flow starves; with an adequate
  // one it achieves (most of) its bandwidth. This is the paper's headline
  // claim (Figure 5).
  const double without = pingPongGoodput(0.0, 40'000 / 8);
  const double with = pingPongGoodput(4000.0, 40'000 / 8);
  EXPECT_GT(with, 4.0 * without);
  EXPECT_GT(with, 1200.0);  // achieves real throughput, in kb/s
}

TEST(EndToEndQosTest, ThroughputRisesWithReservationThenSaturates) {
  // Three points on a Figure-5 curve: inadequate < adequate ~= excess.
  // The 5 KB ping-pong's latency-limited plateau sits near 9 Mb/s, so a
  // 12 Mb/s reservation is already "adequate" and further reservation
  // buys nothing.
  const int msg = 40'000 / 8;  // paper's "40 Kb messages"
  const double low = pingPongGoodput(500.0, msg);
  const double adequate = pingPongGoodput(12'000.0, msg);
  const double excess = pingPongGoodput(25'000.0, msg);
  EXPECT_LT(low, adequate * 0.5);
  EXPECT_NEAR(excess, adequate, adequate * 0.2);
}

TEST(EndToEndQosTest, VisualizationReservationDeliversTargetRate) {
  // Figure 6: 10 fps × 5 KB frames = 400 kb/s; an adequate reservation
  // delivers the target under contention.
  GarnetRig rig;
  rig.startContention();
  VisualizationStats stats;
  const double seconds = 20.0;
  rig.world.launch([&](mpi::Comm& comm) -> Task<> {
    if (comm.rank() == 0) {
      EXPECT_TRUE(co_await rig.requestPremium(comm, 450.0, 5'000));
      VisualizationConfig config;
      config.frames_per_second = 10;
      config.frame_bytes = 5'000;
      co_await apps::visualizationSender(comm, config,
                                         TimePoint::fromSeconds(seconds),
                                         &stats);
    } else {
      co_await apps::visualizationReceiver(comm, &stats);
    }
  });
  rig.sim.runUntil(TimePoint::fromSeconds(seconds + 30));
  EXPECT_NEAR(stats.deliveredKbps(seconds), 400.0, 40.0);
  EXPECT_GE(stats.frames_delivered, stats.frames_sent - 5);
}

TEST(EndToEndQosTest, UnderReservedVisualizationCollapses) {
  // Figure 6's cliff: "a reservation that is even a little bit too small
  // dramatically decreases the throughput".
  GarnetRig rig;
  rig.startContention();
  VisualizationStats stats;
  const double seconds = 20.0;
  rig.world.launch([&](mpi::Comm& comm) -> Task<> {
    if (comm.rank() == 0) {
      EXPECT_TRUE(co_await rig.requestPremium(comm, 200.0, 5'000));
      VisualizationConfig config;  // wants 400 kb/s, reserved ~212
      config.frames_per_second = 10;
      config.frame_bytes = 5'000;
      co_await apps::visualizationSender(comm, config,
                                         TimePoint::fromSeconds(seconds),
                                         &stats);
    } else {
      co_await apps::visualizationReceiver(comm, &stats);
    }
  });
  rig.sim.runUntil(TimePoint::fromSeconds(seconds + 60));
  // Far below even the reserved rate, because TCP keeps backing off.
  EXPECT_LT(stats.deliveredKbps(seconds), 240.0);
}

TEST(EndToEndQosTest, CpuReservationRestoresComputeBoundSender) {
  // Figure 8 in miniature: contention on the sending CPU throttles the
  // stream; a 90% DSRT reservation restores it.
  GarnetRig rig;
  // Sender needs 85% CPU to sustain 10 fps (85 ms of work per 100 ms
  // frame): a fair-share hog (50%) nearly halves the frame rate, while a
  // 90% DSRT reservation sustains it.
  const auto job = rig.sender_cpu.registerJob("viz");
  cpu::CpuHog hog(rig.sender_cpu);
  VisualizationStats stats;
  apps::BandwidthTrace sampler(
      rig.sim, [&] { return stats.bytes_delivered; },
      Duration::seconds(1.0));
  sampler.start();
  rig.world.launch([&](mpi::Comm& comm) -> Task<> {
    if (comm.rank() == 0) {
      VisualizationConfig config;
      config.frames_per_second = 10;
      config.frame_bytes = 25'000;  // 2 Mb/s
      config.cpu = &rig.sender_cpu;
      config.cpu_job = job;
      config.cpu_seconds_per_frame = 0.085;
      co_await apps::visualizationSender(comm, config,
                                         TimePoint::fromSeconds(30), &stats);
    } else {
      co_await apps::visualizationReceiver(comm, &stats);
    }
  });
  rig.sim.schedule(Duration::seconds(10), [&] { hog.start(); });
  rig.sim.schedule(Duration::seconds(20), [&] {
    gara::ReservationRequest request;
    request.start = rig.sim.now();
    request.amount = 0.9;
    request.cpu_job = job;
    auto outcome = rig.gara.reserve("cpu-sender", request);
    EXPECT_TRUE(static_cast<bool>(outcome)) << outcome.error;
  });
  rig.sim.runUntil(TimePoint::fromSeconds(40));

  const double phase_free = sampler.meanKbps(2, 10);
  const double phase_hog = sampler.meanKbps(12, 20);
  const double phase_resv = sampler.meanKbps(22, 30);
  EXPECT_NEAR(phase_free, 2000.0, 300.0);
  EXPECT_LT(phase_hog, phase_free * 0.7);    // hog throttles the stream
  EXPECT_NEAR(phase_resv, phase_free, 300.0);  // reservation restores it
}

TEST(ShapedSocketTest, PacesToConfiguredRate) {
  sim::Simulator sim;
  net::Network net(sim);
  auto& a = net.addHost("a");
  auto& b = net.addHost("b");
  net.connect(a, b, net::LinkConfig{});
  net.computeRoutes();

  tcp::TcpListener listener(b, 5000);
  tcp::TcpSocket* receiver = nullptr;
  auto server = [](tcp::TcpListener& l, tcp::TcpSocket*& out) -> Task<> {
    auto s = co_await l.accept();
    out = s.get();
    (void)co_await s->drain(INT64_MAX / 2, true);
  };
  auto client = [](net::Host& h, net::NodeId dst) -> Task<> {
    auto s = co_await tcp::TcpSocket::connect(h, dst, 5000);
    ShapedSocket shaped(*s, 2e6, 10'000);  // 2 Mb/s
    co_await shaped.sendBulk(10'000'000);
  };
  sim.spawn(server(listener, receiver));
  sim.spawn(client(a, b.id()));
  sim.runUntil(TimePoint::fromSeconds(10));
  ASSERT_NE(receiver, nullptr);
  const double rate_bps =
      static_cast<double>(receiver->bytesDelivered()) * 8.0 / 10.0;
  EXPECT_NEAR(rate_bps, 2e6, 0.15e6);
}

TEST(ShapedSocketTest, ShapingPreventsPolicerDrops) {
  // §5.4's alternative: with source shaping at the reserved rate, a small
  // token bucket no longer drops bursts.
  auto run = [](bool shaped) {
    GarnetRig rig;
    rig.startContention();
    const double resv_bps = 2e6;
    auto bucket = std::make_shared<net::TokenBucket>(
        rig.sim, resv_bps,
        net::TokenBucket::depthForRate(resv_bps, 40.0));
    net::MarkingRule rule;
    rule.match.src = rig.garnet.premium_src->id();
    rule.match.proto = net::Protocol::kTcp;
    rule.mark = net::Dscp::kExpedited;
    rule.bucket = bucket;
    rig.garnet.ingressEdgeInterface()->ingressPolicy().addRule(rule);

    tcp::TcpListener listener(*rig.garnet.premium_dst, 7000);
    auto server = [](tcp::TcpListener& l) -> Task<> {
      auto s = co_await l.accept();
      (void)co_await s->drain(INT64_MAX / 2, false);
    };
    // Bursty sender: 50 KB every 200 ms (2 Mb/s average, heavy bursts).
    auto client = [](GarnetRig& r, bool use_shaper) -> Task<> {
      auto s = co_await tcp::TcpSocket::connect(
          *r.garnet.premium_src, r.garnet.premium_dst->id(), 7000);
      ShapedSocket shaped(*s, 2e6, 6'000);
      for (int i = 0; i < 50; ++i) {
        if (use_shaper) {
          co_await shaped.sendBulk(50'000);
        } else {
          co_await s->sendBulk(50'000);
        }
        co_await r.sim.delay(Duration::millis(200));
      }
    };
    rig.sim.spawn(server(listener));
    rig.sim.spawn(client(rig, shaped));
    rig.sim.runUntil(TimePoint::fromSeconds(30));
    return rig.garnet.ingressEdgeInterface()->stats().drops_policed;
  };
  const auto unshaped_drops = run(false);
  const auto shaped_drops = run(true);
  EXPECT_GT(unshaped_drops, 20u);
  EXPECT_LT(shaped_drops, unshaped_drops / 10);
}

}  // namespace
}  // namespace mgq::gq
