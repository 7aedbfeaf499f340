// Network fault primitives: link flaps halt and resume transmission (and
// lose in-flight packets), link-state observers fire on every transition,
// and WireFaults' loss, corrupt, duplicate, reorder and partition faults
// act on one egress wire with seeded, replayable, independent streams.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <set>
#include <utility>
#include <vector>

#include "net/faults.hpp"
#include "net/network.hpp"
#include "net/udp.hpp"

namespace mgq::net {
namespace {

using sim::Duration;
using sim::TimePoint;

struct Fixture {
  Fixture() : network(sim) {
    src = &network.addHost("src");
    dst = &network.addHost("dst");
    network.connect(*src, *dst, LinkConfig{});
    network.computeRoutes();
  }
  Interface& srcIface() { return *src->interfaces().front(); }

  sim::Simulator sim;
  Network network;
  Host* src;
  Host* dst;
};

TEST(LinkFaultTest, DownHoldsQueuedTrafficUpResumesIt) {
  Fixture f;
  UdpSocket sender(*f.src);
  UdpSink sink(*f.dst, 7);

  LinkFault link(f.srcIface());
  link.fail();
  EXPECT_TRUE(link.failed());
  EXPECT_FALSE(f.srcIface().isUp());

  for (int i = 0; i < 4; ++i) sender.sendTo(f.dst->id(), 7, 1000);
  f.sim.runUntil(TimePoint::fromSeconds(1));
  EXPECT_EQ(sink.packetsReceived(), 0u)
      << "a down link must not transmit queued packets";

  link.restore();
  EXPECT_FALSE(link.failed());
  f.sim.runUntil(TimePoint::fromSeconds(2));
  EXPECT_EQ(sink.packetsReceived(), 4u)
      << "restoring the link must drain the held queue";
}

TEST(LinkFaultTest, InFlightPacketsAreLostOnFailure) {
  Fixture f;
  UdpSocket sender(*f.src);
  UdpSink sink(*f.dst, 7);

  // Serialize fully (fast), then fail both directions mid-propagation: the
  // receiving side is down when the packet arrives, so it is dropped.
  sender.sendTo(f.dst->id(), 7, 1000);
  LinkFault link(f.srcIface());
  f.sim.schedule(Duration::micros(300), [&] { link.fail(); });
  f.sim.runUntil(TimePoint::fromSeconds(1));
  EXPECT_EQ(sink.packetsReceived(), 0u);
  EXPECT_EQ(f.dst->interfaces().front()->stats().drops_link_down, 1u);
}

TEST(LinkFaultTest, ObserversFireOnEveryTransition) {
  Fixture f;
  std::vector<bool> transitions;
  f.srcIface().onLinkStateChange(
      [&](Interface&, bool up) { transitions.push_back(up); });
  LinkFault link(f.srcIface());
  link.fail();
  link.fail();  // idempotent: no second notification
  link.restore();
  ASSERT_EQ(transitions.size(), 2u);
  EXPECT_FALSE(transitions[0]);
  EXPECT_TRUE(transitions[1]);
}

TEST(LossInjectorTest, FullLossDropsEverythingStopRestores) {
  Fixture f;
  UdpSocket sender(*f.src);
  UdpSink sink(*f.dst, 7);
  WireFaults wire(f.srcIface(), /*seed=*/5);

  wire.start(WireFaults::Kind::kLoss, 1.0);
  for (int i = 0; i < 5; ++i) sender.sendTo(f.dst->id(), 7, 1000);
  f.sim.runUntil(TimePoint::fromSeconds(1));
  EXPECT_EQ(sink.packetsReceived(), 0u);
  EXPECT_EQ(f.srcIface().stats().drops_fault, 5u);

  wire.stop(WireFaults::Kind::kLoss);
  for (int i = 0; i < 5; ++i) sender.sendTo(f.dst->id(), 7, 1000);
  f.sim.runUntil(TimePoint::fromSeconds(2));
  EXPECT_EQ(sink.packetsReceived(), 5u);
}

TEST(LossInjectorTest, SeededLossPatternReplaysExactly) {
  auto deliveredMask = [](std::uint64_t seed) {
    Fixture f;
    UdpSocket sender(*f.src);
    std::vector<std::uint64_t> delivered;
    UdpSocket receiver(*f.dst, 7);
    receiver.onReceive(
        [&](const Packet& p) { delivered.push_back(p.id); });
    WireFaults wire(f.srcIface(), seed);
    wire.start(WireFaults::Kind::kLoss, 0.5);
    for (int i = 0; i < 64; ++i) sender.sendTo(f.dst->id(), 7, 100);
    f.sim.runUntil(TimePoint::fromSeconds(1));
    return delivered;
  };
  const auto a = deliveredMask(9);
  EXPECT_FALSE(a.empty());
  EXPECT_LT(a.size(), 64u);
  EXPECT_EQ(a, deliveredMask(9));
  EXPECT_NE(a, deliveredMask(10));
}

TEST(FaultTargetAdapterTest, AdaptersDriveThePrimitives) {
  Fixture f;
  LinkFault link(f.srcIface());
  WireFaults wire(f.srcIface(), 1);
  auto link_target = linkFaultTarget(link);
  auto loss_target = wireFaultTarget(wire, WireFaults::Kind::kLoss);

  link_target.down();
  EXPECT_TRUE(link.failed());
  link_target.up();
  EXPECT_FALSE(link.failed());
  loss_target.loss_start(0.3);
  EXPECT_TRUE(wire.active(WireFaults::Kind::kLoss));
  loss_target.loss_stop();
  EXPECT_FALSE(wire.active(WireFaults::Kind::kLoss));
}

// --- adversarial wire faults ---------------------------------------------

/// Captures every packet reaching a bound protocol port, copying payload
/// bytes out so assertions survive buffer recycling.
struct CaptureSink : PacketReceiver {
  std::vector<std::vector<std::uint8_t>> payloads;
  void onPacket(Packet p) override {
    const auto* h = p.tcp();
    std::vector<std::uint8_t> bytes;
    if (h != nullptr) {
      bytes.assign(h->payload.data(), h->payload.data() + h->payload.size());
    }
    payloads.push_back(std::move(bytes));
  }
};

Packet tcpPacket(const FlowKey& flow, BufSlice payload) {
  TcpHeader h;
  h.payload = std::move(payload);
  Packet p;
  p.flow = flow;
  p.size_bytes = static_cast<std::int32_t>(h.payload.size()) + 40;
  p.header = std::move(h);
  return p;
}

TEST(CorruptionInjectorTest, CopyOnCorruptLeavesSharedSliceUntouched) {
  Fixture f;
  CaptureSink sink;
  f.dst->bind(Protocol::kTcp, 7, &sink);

  WireFaults wire(f.srcIface(), /*seed=*/5);
  wire.start(WireFaults::Kind::kCorrupt, 1.0);

  // The sender keeps a view of the payload buffer — exactly what a TCP
  // retransmission ring does. Corruption must flip a bit only in the
  // delivered copy, never in this shared window.
  auto original = BufSlice::fill(512, 0xab);
  auto retained = original;  // second view of the same buffer
  const FlowKey flow{f.src->id(), f.dst->id(), 1000, 7, Protocol::kTcp};
  f.src->sendPacket(tcpPacket(flow, original));
  f.sim.run();

  EXPECT_EQ(f.srcIface().stats().corrupted, 1u);
  for (std::size_t i = 0; i < retained.size(); ++i) {
    ASSERT_EQ(retained[i], 0xab) << "shared slice mutated at byte " << i;
  }
  ASSERT_EQ(sink.payloads.size(), 1u);
  const auto& delivered = sink.payloads.front();
  ASSERT_EQ(delivered.size(), 512u);
  int flipped_bits = 0;
  for (std::size_t i = 0; i < delivered.size(); ++i) {
    flipped_bits += __builtin_popcount(delivered[i] ^ 0xabu);
  }
  EXPECT_EQ(flipped_bits, 1) << "corruption must flip exactly one bit";
}

TEST(CorruptionInjectorTest, NonTcpPacketsAreSkippedNotMutated) {
  Fixture f;
  UdpSocket sender(*f.src);
  UdpSink sink(*f.dst, 7);

  WireFaults wire(f.srcIface(), /*seed=*/5);
  wire.start(WireFaults::Kind::kCorrupt, 1.0);
  for (int i = 0; i < 6; ++i) sender.sendTo(f.dst->id(), 7, 900);
  f.sim.run();

  EXPECT_EQ(f.srcIface().stats().corrupt_skipped, 6u);
  EXPECT_EQ(sink.packetsReceived(), 6u)
      << "skipped packets must still be delivered intact";
  EXPECT_EQ(f.srcIface().stats().corrupted, 0u);
}

TEST(DuplicateInjectorTest, CloneArrivesBehindTheOriginal) {
  Fixture f;
  UdpSocket sender(*f.src);
  UdpSink sink(*f.dst, 7);

  WireFaults wire(f.srcIface(), /*seed=*/9);
  wire.start(WireFaults::Kind::kDuplicate, 1.0);
  for (int i = 0; i < 5; ++i) sender.sendTo(f.dst->id(), 7, 400);
  f.sim.run();

  EXPECT_EQ(f.srcIface().stats().duplicated, 5u);
  EXPECT_EQ(sink.packetsReceived(), 10u)
      << "every duplicated datagram must arrive twice";

  wire.stop(WireFaults::Kind::kDuplicate);
  sender.sendTo(f.dst->id(), 7, 400);
  f.sim.run();
  EXPECT_EQ(sink.packetsReceived(), 11u) << "stop() must end duplication";
}

TEST(ReorderInjectorTest, SeededHoldIsDeterministicAndDrainsCompletely) {
  auto run = [](std::uint64_t seed) {
    Fixture f;
    UdpSocket sender(*f.src);
    UdpSink sink(*f.dst, 7);
    WireFaults wire(f.srcIface(), seed,
                    /*reorder_bound=*/sim::Duration::millis(2));
    wire.start(WireFaults::Kind::kReorder, 0.5);
    for (int i = 0; i < 40; ++i) sender.sendTo(f.dst->id(), 7, 300);
    f.sim.run();
    EXPECT_EQ(f.srcIface().delayedInFlight(), 0u)
        << "held packets must all deliver by quiescence";
    EXPECT_EQ(sink.packetsReceived(), 40u)
        << "reordering must never lose or duplicate";
    return f.srcIface().stats().reordered;
  };
  const auto a = run(77);
  const auto b = run(77);
  EXPECT_GT(a, 0u);
  EXPECT_LT(a, 40u) << "p=0.5 should leave some packets on the FIFO wire";
  EXPECT_EQ(a, b) << "same seed must reorder the same packets";
  EXPECT_NE(run(78), 0u);
}

TEST(PartitionFaultTest, DirectionalBlackholeHealsOnDemand) {
  Fixture f;
  UdpSocket sender(*f.src);
  UdpSink sink(*f.dst, 7);
  UdpSocket back_sender(*f.dst);
  UdpSink back_sink(*f.src, 8);

  WireFaults cut(f.srcIface(), /*seed=*/1);
  cut.partition();
  EXPECT_TRUE(cut.partitioned());
  for (int i = 0; i < 4; ++i) sender.sendTo(f.dst->id(), 7, 500);
  back_sender.sendTo(f.src->id(), 8, 500);
  f.sim.run();
  EXPECT_EQ(sink.packetsReceived(), 0u) << "partitioned egress must eat all";
  EXPECT_EQ(f.srcIface().stats().drops_partition, 4u);
  EXPECT_EQ(back_sink.packetsReceived(), 1u)
      << "a directional partition must not touch the reverse path";

  cut.heal();
  EXPECT_FALSE(cut.partitioned());
  sender.sendTo(f.dst->id(), 7, 500);
  f.sim.run();
  EXPECT_EQ(sink.packetsReceived(), 1u) << "healing must restore delivery";
  EXPECT_EQ(f.srcIface().stats().drops_partition, 4u);
}

TEST(FaultTargetAdapterTest, AdversarialAdaptersDriveThePrimitives) {
  Fixture f;
  WireFaults wire(f.srcIface(), 1);
  using Kind = WireFaults::Kind;

  for (const auto kind : {Kind::kCorrupt, Kind::kDuplicate, Kind::kReorder}) {
    auto target = wireFaultTarget(wire, kind);
    EXPECT_FALSE(target.down) << "an episode maps to loss_start/loss_stop";
    target.loss_start(0.2);
    EXPECT_TRUE(wire.active(kind));
    target.loss_stop();
    EXPECT_FALSE(wire.active(kind));
  }

  auto cut_target = wireFaultTarget(wire, Kind::kPartition);
  EXPECT_FALSE(cut_target.loss_start) << "a partition maps to down/up";
  cut_target.down();
  EXPECT_TRUE(wire.partitioned());
  cut_target.up();
  EXPECT_FALSE(wire.partitioned());
}

// --- stream independence (DESIGN.md §14.1) --------------------------------

constexpr std::size_t kSends = 200;

/// What one fixed UDP send sequence met on the wire: the indices that never
/// arrived, and the indices held back by a reorder episode.
struct WireOutcome {
  std::set<std::size_t> dropped;
  std::set<std::size_t> held;
};

WireOutcome sendThrough(
    std::initializer_list<std::pair<WireFaults::Kind, double>> episodes) {
  // Spaced wider than the 5 ms reorder bound, so a held packet shows as a
  // longer latency and never crosses the next send.
  const Duration spacing = Duration::millis(10);
  Fixture f;
  UdpSocket sender(*f.src);
  UdpSocket receiver(*f.dst, 7);
  std::vector<Duration> latency(kSends, Duration::zero());
  std::vector<bool> arrived(kSends, false);
  receiver.onReceive([&](const Packet& p) {
    // Host packet ids count from 1 in the low 40 bits, in send order.
    const auto index = (p.id & ((1ull << 40) - 1)) - 1;
    const auto sent_at = TimePoint::zero() + spacing * index;
    latency[index] = std::max(latency[index], f.sim.now() - sent_at);
    arrived[index] = true;
  });
  WireFaults wire(f.srcIface(), /*seed=*/31);
  for (const auto& [kind, p] : episodes) wire.start(kind, p);
  for (std::size_t i = 0; i < kSends; ++i) {
    f.sim.schedule(spacing * i, [&] { sender.sendTo(f.dst->id(), 7, 300); });
  }
  f.sim.run();

  // Same-size packets on an idle link: every unheld one sees the bare
  // serialization + propagation latency, the minimum.
  Duration bare = Duration::seconds(1);
  for (std::size_t i = 0; i < kSends; ++i) {
    if (arrived[i]) bare = std::min(bare, latency[i]);
  }
  WireOutcome out;
  for (std::size_t i = 0; i < kSends; ++i) {
    if (!arrived[i]) {
      out.dropped.insert(i);
    } else if (latency[i] > bare) {
      out.held.insert(i);
    }
  }
  return out;
}

TEST(WireFaultsTest, CategoryStreamsNeverPerturbEachOther) {
  using Kind = WireFaults::Kind;
  const auto lossy = sendThrough({{Kind::kLoss, 0.3}});
  EXPECT_FALSE(lossy.dropped.empty());
  EXPECT_TRUE(lossy.held.empty());
  const auto everything =
      sendThrough({{Kind::kLoss, 0.3}, {Kind::kCorrupt, 0.5},
                   {Kind::kDuplicate, 0.5}, {Kind::kReorder, 0.5}});
  EXPECT_EQ(everything.dropped, lossy.dropped)
      << "corrupt, duplicate and reorder episodes must not move loss draws";

  const auto reordered = sendThrough({{Kind::kReorder, 0.3}});
  EXPECT_FALSE(reordered.held.empty());
  EXPECT_TRUE(reordered.dropped.empty());
  EXPECT_EQ(sendThrough({{Kind::kReorder, 0.3}, {Kind::kDuplicate, 0.5}}).held,
            reordered.held)
      << "a duplicate episode must not move reorder draws";

  // Loss decides first and a lost packet draws nothing further, so the
  // k-th reorder draw lands on the k-th surviving packet: the same draws,
  // shifted past the lost indices.
  const auto both = sendThrough({{Kind::kReorder, 0.3}, {Kind::kLoss, 0.3}});
  EXPECT_EQ(both.dropped, lossy.dropped);
  std::set<std::size_t> expected_held;
  std::size_t draw = 0;
  for (std::size_t i = 0; i < kSends; ++i) {
    if (both.dropped.count(i) != 0) continue;
    if (reordered.held.count(draw++) != 0) expected_held.insert(i);
  }
  EXPECT_EQ(both.held, expected_held)
      << "a loss episode must not move reorder draws";
}

}  // namespace
}  // namespace mgq::net
