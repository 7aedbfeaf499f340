#include "net/buffer.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "net/faults.hpp"
#include "net/network.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"

namespace mgq::net {
namespace {

// Every test asserts against deltas from the entry state: the pool is
// thread-local and shared with every other test in this binary, so
// absolute counters would couple test order.
struct PoolProbe {
  BufferPoolStats before = BufferPool::local().stats();
  std::int64_t live_before = BufferPool::totalLive();

  std::uint64_t allocations() const {
    return BufferPool::local().stats().allocations - before.allocations;
  }
  std::uint64_t fresh() const {
    return BufferPool::local().stats().fresh - before.fresh;
  }
  std::uint64_t recycled() const {
    return BufferPool::local().stats().recycled - before.recycled;
  }
  std::int64_t liveDelta() const {
    return BufferPool::totalLive() - live_before;
  }
};

TEST(BufferPoolTest, AllocationRoundsUpToSizeClass) {
  PoolProbe probe;
  auto small = BufferPool::local().allocate(100);
  EXPECT_EQ(small->capacity(), 256u);
  auto mid = BufferPool::local().allocate(1025);
  EXPECT_EQ(mid->capacity(), 4096u);
  auto top = BufferPool::local().allocate(65536);
  EXPECT_EQ(top->capacity(), 65536u);
  EXPECT_EQ(probe.liveDelta(), 3);
}

TEST(BufferPoolTest, OversizeRequestGetsExactCapacity) {
  PoolProbe probe;
  {
    auto big = BufferPool::local().allocate(100'000);
    EXPECT_EQ(big->capacity(), 100'000u);
    EXPECT_EQ(probe.liveDelta(), 1);
  }
  // Exact-size buffers are freed on release, never recycled.
  EXPECT_EQ(probe.liveDelta(), 0);
  EXPECT_EQ(probe.recycled(), 0u);
}

TEST(BufferPoolTest, ReleasedBufferIsRecycledNotReallocated) {
  // Drain any free-listed 4 KB buffers left by earlier tests so the first
  // allocate below is deterministically fresh.
  std::vector<BufferRef> drain;
  while (true) {
    const auto fresh_before = BufferPool::local().stats().fresh;
    drain.push_back(BufferPool::local().allocate(4096));
    if (BufferPool::local().stats().fresh != fresh_before) break;
  }
  drain.clear();

  PoolProbe probe;
  { auto b = BufferPool::local().allocate(4096); }
  EXPECT_EQ(probe.fresh(), 0u) << "drained free list should serve this";
  EXPECT_EQ(probe.recycled(), 1u);
  { auto again = BufferPool::local().allocate(4096); }
  EXPECT_EQ(probe.fresh(), 0u);
  EXPECT_EQ(probe.recycled(), 2u);
  EXPECT_EQ(probe.liveDelta(), 0);
}

TEST(BufferPoolTest, HighWaterTracksPeakLiveBuffers) {
  std::vector<BufferRef> held;
  const auto base_live = BufferPool::local().stats().live;
  for (int i = 0; i < 8; ++i) {
    held.push_back(BufferPool::local().allocate(256));
  }
  EXPECT_GE(BufferPool::local().stats().high_water, base_live + 8);
  EXPECT_EQ(BufferPool::local().stats().live, base_live + 8);
  held.clear();
  EXPECT_EQ(BufferPool::local().stats().live, base_live);
}

TEST(BufferPoolTest, CeilingRejectsTryAllocateAndRecovers) {
  auto& pool = BufferPool::local();
  const auto prev_ceiling = pool.liveBytesCeiling();
  const auto base_live = pool.stats().live_bytes;
  const auto base_rejections = pool.stats().ceiling_rejections;
  pool.setLiveBytesCeiling(base_live + 8 * 1024);

  auto a = pool.tryAllocate(4096);
  ASSERT_TRUE(a);
  auto b = pool.tryAllocate(4096);
  ASSERT_TRUE(b);
  EXPECT_TRUE(pool.underPressure());

  auto rejected = pool.tryAllocate(4096);
  EXPECT_FALSE(rejected) << "allocation past the ceiling must be refused";
  EXPECT_EQ(pool.stats().ceiling_rejections, base_rejections + 1);

  // Graceful degradation, not a dead end: releasing live bytes reopens
  // admission.
  a = BufferRef{};
  EXPECT_FALSE(pool.underPressure());
  auto again = pool.tryAllocate(4096);
  EXPECT_TRUE(again) << "released bytes must reopen the ceiling";

  pool.setLiveBytesCeiling(prev_ceiling);
}

TEST(BufferPoolTest, AllocateIsCeilingExemptForCorrectnessPaths) {
  auto& pool = BufferPool::local();
  const auto prev_ceiling = pool.liveBytesCeiling();
  const auto base_live = pool.stats().live_bytes;
  pool.setLiveBytesCeiling(base_live + 1024);

  // allocate() serves paths that cannot shed (reassembly views, ring
  // gathers): it must succeed past the ceiling, visible as pressure.
  auto a = pool.allocate(4096);
  ASSERT_TRUE(a);
  auto b = pool.allocate(4096);
  ASSERT_TRUE(b);
  EXPECT_GT(pool.stats().live_bytes, pool.liveBytesCeiling());
  EXPECT_TRUE(pool.underPressure());

  pool.setLiveBytesCeiling(prev_ceiling);
}

TEST(BufferPoolTest, LiveBytesBalanceAcrossCrossThreadRelease) {
  const auto total_before = BufferPool::totalLiveBytes();
  auto held = BufferPool::local().allocate(16 * 1024);
  EXPECT_GE(BufferPool::totalLiveBytes(), total_before + 16 * 1024);
  // Release on a foreign thread: owner stats are not touched (per-pool
  // stats are only meaningful on the owning thread), but the global
  // live-bytes gauge must balance to zero delta.
  std::thread([moved = std::move(held)]() mutable {
    moved = BufferRef{};
  }).join();
  EXPECT_EQ(BufferPool::totalLiveBytes(), total_before)
      << "cross-thread release must return the global gauge to baseline";
}

TEST(BufSliceTest, CopyBumpsRefcountAndSharesBytes) {
  PoolProbe probe;
  const std::vector<std::uint8_t> src = {1, 2, 3, 4, 5, 6, 7, 8};
  auto a = BufSlice::copyOf(src);
  auto b = a;  // same buffer, no new allocation
  EXPECT_EQ(probe.allocations(), 1u);
  EXPECT_EQ(a.data(), b.data());
  auto sub = a.subslice(2, 4);
  EXPECT_EQ(sub.size(), 4u);
  EXPECT_EQ(sub[0], 3);
  EXPECT_EQ(sub.data(), a.data() + 2);
  EXPECT_EQ(probe.liveDelta(), 1);
  a = BufSlice{};
  b = BufSlice{};
  EXPECT_EQ(probe.liveDelta(), 1) << "subslice still holds the buffer";
  sub = BufSlice{};
  EXPECT_EQ(probe.liveDelta(), 0);
}

TEST(BufSliceTest, FillProducesUniformBytes) {
  auto s = BufSlice::fill(300, 0x5a);
  ASSERT_EQ(s.size(), 300u);
  for (std::size_t i = 0; i < s.size(); ++i) ASSERT_EQ(s[i], 0x5a);
  EXPECT_TRUE(BufSlice{}.empty());
  EXPECT_TRUE(BufSlice::fill(0, 1).empty());
}

// --- lifecycle: payload buffers must drain back to the pool no matter
// how the packet dies -----------------------------------------------------

Packet payloadPacket(const FlowKey& flow, std::size_t bytes) {
  TcpHeader h;
  h.payload = BufSlice::fill(bytes, 0xab);
  Packet p;
  p.flow = flow;
  p.size_bytes = static_cast<std::int32_t>(bytes) + 40;
  p.header = std::move(h);
  return p;
}

struct NullSink : PacketReceiver {
  void onPacket(Packet) override {}
};

TEST(BufferLifecycleTest, LossInjectorDropReleasesPayload) {
  PoolProbe probe;
  {
    sim::Simulator sim(7);
    Network net(sim);
    auto& a = net.addHost("a");
    auto& b = net.addHost("b");
    LinkConfig link;
    link.rate_bps = 1e9;
    net.connect(a, b, link);
    net.computeRoutes();
    NullSink sink;
    b.bind(Protocol::kTcp, 7, &sink);

    WireFaults wire(a.nic(), /*seed=*/1);
    wire.start(WireFaults::Kind::kLoss, 1.0);
    const FlowKey flow{a.id(), b.id(), 1000, 7, Protocol::kTcp};
    for (int i = 0; i < 50; ++i) a.sendPacket(payloadPacket(flow, 1200));
    sim.run();
    EXPECT_EQ(a.nic().stats().drops_fault, 50u);
  }
  EXPECT_EQ(probe.liveDelta(), 0) << "wire-dropped payloads leaked";
}

TEST(BufferLifecycleTest, QueueOverflowDropReleasesPayload) {
  PoolProbe probe;
  {
    sim::Simulator sim(7);
    Network net(sim);
    auto& a = net.addHost("a");
    auto& b = net.addHost("b");
    LinkConfig link;
    link.rate_bps = 1e6;  // slow wire: the qdisc fills immediately
    link.qdisc.be_capacity_bytes = 3000;
    net.connect(a, b, link);
    net.computeRoutes();
    NullSink sink;
    b.bind(Protocol::kTcp, 7, &sink);

    const FlowKey flow{a.id(), b.id(), 1000, 7, Protocol::kTcp};
    for (int i = 0; i < 100; ++i) a.sendPacket(payloadPacket(flow, 1200));
    sim.run();
    EXPECT_GT(a.nic().stats().drops_overflow, 0u);
  }
  EXPECT_EQ(probe.liveDelta(), 0) << "overflow-dropped payloads leaked";
}

// Builds a two-host rig, sends payload packets over a slow, long link and
// destroys the rig before they all arrive. The plain input destroys it
// before any event ran, with packets queued and one serializing. The
// faulted input arms duplication and reordering, splits the traffic over
// the EF and BE bands and runs part of the way first, so teardown finds
// packets in every custody state: queued in both bands, serializing,
// propagating, cloned and reorder-held.
void tearDownMidFlight(bool faulted) {
  sim::Simulator sim(7);
  Network net(sim);
  auto& a = net.addHost("a");
  auto& b = net.addHost("b");
  LinkConfig link;
  link.rate_bps = 1e6;
  link.delay = sim::Duration::millis(50);
  net.connect(a, b, link);
  net.computeRoutes();
  NullSink sink;
  b.bind(Protocol::kTcp, 7, &sink);

  const FlowKey flow{a.id(), b.id(), 1000, 7, Protocol::kTcp};
  if (!faulted) {
    for (int i = 0; i < 20; ++i) a.sendPacket(payloadPacket(flow, 1200));
    return;
  }
  WireFaults wire(a.nic(), /*seed=*/3, sim::Duration::millis(200));
  wire.start(WireFaults::Kind::kDuplicate, 0.5);
  wire.start(WireFaults::Kind::kReorder, 0.3);
  for (int i = 0; i < 60; ++i) {
    Packet p = payloadPacket(flow, 1200);
    if (i % 2 == 0) p.dscp = Dscp::kExpedited;
    a.sendPacket(std::move(p));
  }
  // About 12 packets serialize in 120 ms; the last 5 or so are still
  // within the 50 ms propagation delay.
  sim.runUntil(sim::TimePoint::zero() + sim::Duration::millis(120));
  const Interface& nic = a.nic();
  const InterfaceStats& st = nic.stats();
  EXPECT_GT(nic.qdisc().classQueue(Dscp::kExpedited).packetCount(), 0u);
  EXPECT_GT(nic.qdisc().classQueue(Dscp::kBestEffort).packetCount(), 0u);
  EXPECT_GT(st.duplicated, 0u);
  EXPECT_GT(nic.delayedInFlight(), 0u);
  // Every serialized packet put one entry on the wire, plus one per
  // clone, minus one per reorder-held packet; one more is serializing.
  const auto on_wire = static_cast<std::int64_t>(
      st.tx_packets - 1 + st.duplicated - st.reordered);
  const auto arrived = static_cast<std::int64_t>(
      b.nic().stats().rx_packets - (st.reordered - nic.delayedInFlight()));
  EXPECT_GE(on_wire - arrived, 2) << "nothing left propagating";
}

TEST(BufferLifecycleTest, TeardownWithPacketsInFlightReleasesEverything) {
  for (bool faulted : {false, true}) {
    SCOPED_TRACE(faulted ? "faulted" : "plain");
    PoolProbe probe;
    tearDownMidFlight(faulted);
    EXPECT_EQ(probe.liveDelta(), 0) << "in-flight payloads leaked at teardown";
  }
}

// Records when each packet arrives, and echoes every first-generation
// packet back to its own host from inside the delivery, so the loopback
// ring is pushed while it delivers.
struct LoopbackEcho : PacketReceiver {
  sim::Simulator* sim = nullptr;
  Host* host = nullptr;
  std::vector<std::pair<sim::TimePoint, std::uint64_t>> arrivals;

  void onPacket(Packet p) override {
    const std::uint64_t seq = p.tcp()->seq;
    arrivals.emplace_back(sim->now(), seq);
    if (seq < 100) {
      p.tcp()->seq = seq + 100;
      host->sendPacket(std::move(p));
    }
  }
};

Packet selfPacket(const Host& h, std::uint64_t seq) {
  const FlowKey self{h.id(), h.id(), 1000, 7, Protocol::kTcp};
  Packet p = payloadPacket(self, 1200);
  p.tcp()->seq = seq;
  return p;
}

TEST(HostLoopbackTest, InOrderAfterFiveMicrosAndReleasedAtTeardown) {
  PoolProbe probe;
  {
    sim::Simulator sim(7);
    Network net(sim);
    auto& a = net.addHost("a");
    LoopbackEcho echo;
    echo.sim = &sim;
    echo.host = &a;
    a.bind(Protocol::kTcp, 7, &echo);

    for (std::uint64_t i = 0; i < 10; ++i) a.sendPacket(selfPacket(a, i));
    sim.runUntil(sim::TimePoint::zero() + sim::Duration::micros(4));
    EXPECT_TRUE(echo.arrivals.empty());
    sim.run();

    // The first ten arrive together 5 us after they were sent, in send
    // order; their echoes follow 5 us after that, in the same order.
    ASSERT_EQ(echo.arrivals.size(), 20u);
    for (std::uint64_t i = 0; i < 20; ++i) {
      const auto want_at =
          sim::TimePoint::zero() + sim::Duration::micros(i < 10 ? 5 : 10);
      EXPECT_EQ(echo.arrivals[i].first, want_at) << i;
      EXPECT_EQ(echo.arrivals[i].second, i < 10 ? i : i - 10 + 100) << i;
    }
    EXPECT_EQ(a.nic().stats().tx_packets, 0u) << "loopback used the NIC";

    // Tear down with a batch still pending, enough to grow the ring.
    for (std::uint64_t i = 0; i < 40; ++i) a.sendPacket(selfPacket(a, i));
    EXPECT_EQ(probe.liveDelta(), 40);
  }
  EXPECT_EQ(probe.liveDelta(), 0) << "pending loopback payloads leaked";
}

}  // namespace
}  // namespace mgq::net
