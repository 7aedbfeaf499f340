#include "net/udp.hpp"

#include <gtest/gtest.h>

#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace mgq::net {
namespace {

using sim::Duration;

struct Pair {
  explicit Pair(sim::Simulator& sim) : net(sim) {
    a = &net.addHost("a");
    b = &net.addHost("b");
    LinkConfig link;
    link.rate_bps = 1e9;
    net.connect(*a, *b, link);
    net.computeRoutes();
  }
  Network net;
  Host* a;
  Host* b;
};

TEST(UdpSocketTest, EphemeralPortsAreDistinct) {
  sim::Simulator sim;
  Pair pair(sim);
  UdpSocket s1(*pair.a);
  UdpSocket s2(*pair.a);
  UdpSocket s3(*pair.a);
  EXPECT_NE(s1.port(), s2.port());
  EXPECT_NE(s2.port(), s3.port());
  EXPECT_GE(s1.port(), 49152);
}

TEST(UdpSocketTest, PortReleasedOnDestruction) {
  sim::Simulator sim;
  Pair pair(sim);
  PortId port;
  {
    UdpSocket s(*pair.a, 7777);
    port = s.port();
  }
  UdpSocket again(*pair.a, 7777);  // would assert if still bound
  EXPECT_EQ(again.port(), port);
}

TEST(UdpSocketTest, ReceiveCallbackSeesEachPacket) {
  sim::Simulator sim;
  Pair pair(sim);
  UdpSocket rx(*pair.b, 7);
  int calls = 0;
  rx.onReceive([&](const Packet& p) {
    ++calls;
    EXPECT_EQ(p.flow.dst_port, 7);
  });
  UdpSocket tx(*pair.a);
  tx.sendTo(pair.b->id(), 7, 3000);  // 3 fragments
  sim.run();
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(rx.bytesReceived(), 3000);
}

TEST(UdpGeneratorTest, OnOffBurstingConcentratesTraffic) {
  // on_fraction = 0.2: all of each period's bytes arrive in the first
  // fifth of the period.
  sim::Simulator sim;
  Pair pair(sim);
  UdpSink sink(*pair.b, 9);
  UdpTrafficGenerator::Config config;
  config.rate_bps = 8e6;
  config.on_fraction = 0.2;
  config.period = Duration::millis(100);
  UdpTrafficGenerator gen(*pair.a, pair.b->id(), 9, config);
  gen.start();
  // Sample within one period: bytes at 20% mark vs at 100% mark.
  sim.runUntil(sim::TimePoint::zero() + Duration::millis(25));
  const auto early = sink.bytesReceived();
  sim.runUntil(sim::TimePoint::zero() + Duration::millis(99));
  const auto late = sink.bytesReceived();
  gen.stop();
  EXPECT_GT(early, 0);
  // The burst was over by the 25 ms mark: little arrives afterwards.
  EXPECT_NEAR(static_cast<double>(late), static_cast<double>(early),
              static_cast<double>(early) * 0.1);
  // And the average rate over many periods still matches the target.
  sim.runUntil(sim::TimePoint::zero() + Duration::seconds(2));
}

TEST(UdpGeneratorTest, AverageRateIndependentOfBurstiness) {
  for (double on_fraction : {1.0, 0.5, 0.1}) {
    sim::Simulator sim;
    Pair pair(sim);
    UdpSink sink(*pair.b, 9);
    UdpTrafficGenerator::Config config;
    config.rate_bps = 4e6;
    config.on_fraction = on_fraction;
    UdpTrafficGenerator gen(*pair.a, pair.b->id(), 9, config);
    gen.start();
    sim.runUntil(sim::TimePoint::fromSeconds(5));
    gen.stop();
    const double rate =
        static_cast<double>(sink.bytesReceived()) * 8.0 / 5.0;
    EXPECT_NEAR(rate, 4e6, 0.3e6) << "on_fraction=" << on_fraction;
  }
}

TEST(UdpGeneratorTest, StartIsIdempotentStopHalts) {
  sim::Simulator sim;
  Pair pair(sim);
  UdpSink sink(*pair.b, 9);
  UdpTrafficGenerator::Config config;
  config.rate_bps = 1e6;
  UdpTrafficGenerator gen(*pair.a, pair.b->id(), 9, config);
  gen.start();
  gen.start();  // no double traffic
  sim.runUntil(sim::TimePoint::fromSeconds(2));
  const double rate = static_cast<double>(sink.bytesReceived()) * 8.0 / 2.0;
  EXPECT_NEAR(rate, 1e6, 0.2e6);
  gen.stop();
  sim.runFor(Duration::millis(200));  // drain the in-flight tail
  const auto frozen = sink.bytesReceived();
  sim.runFor(Duration::seconds(1));
  EXPECT_EQ(sink.bytesReceived(), frozen);
}

TEST(HostEgressPolicyTest, HostSideMarkingApplies) {
  sim::Simulator sim;
  Pair pair(sim);
  MarkingRule rule;
  rule.match.proto = Protocol::kUdp;
  rule.mark = Dscp::kExpedited;
  pair.a->egressPolicy().addRule(rule);
  UdpSocket rx(*pair.b, 7);
  Dscp seen = Dscp::kBestEffort;
  rx.onReceive([&](const Packet& p) { seen = p.dscp; });
  UdpSocket tx(*pair.a);
  tx.sendTo(pair.b->id(), 7, 100);
  sim.run();
  EXPECT_EQ(seen, Dscp::kExpedited);
}

TEST(HostEgressPolicyTest, HostSidePolicingDropsBeforeTheWire) {
  sim::Simulator sim;
  Pair pair(sim);
  auto bucket = std::make_shared<TokenBucket>(sim, 8000.0, 2000);
  MarkingRule rule;
  rule.match.proto = Protocol::kUdp;
  rule.mark = Dscp::kExpedited;
  rule.bucket = bucket;
  pair.a->egressPolicy().addRule(rule);
  UdpSink sink(*pair.b, 7);
  UdpSocket tx(*pair.a);
  for (int i = 0; i < 10; ++i) tx.sendTo(pair.b->id(), 7, 1000);
  sim.run();
  // Bucket of 2000 bytes: only the first ~2 datagrams pass.
  EXPECT_LE(sink.packetsReceived(), 2u);
  EXPECT_EQ(pair.a->egressPolicy().stats().policed_drops, 10 - sink.packetsReceived());
}

}  // namespace
}  // namespace mgq::net
