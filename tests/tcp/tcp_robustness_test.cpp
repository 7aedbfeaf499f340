// TCP robustness under adversarial network behaviour: reordering,
// duplication, ACK-only loss, bidirectional transfers, and a seed-swept
// random-loss property suite.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <vector>

#include "net/faults.hpp"
#include "net/network.hpp"
#include "net/packet.hpp"
#include "tcp/tcp_socket.hpp"
#include "tcp_test_util.hpp"

namespace mgq::tcp {
namespace {

using sim::Duration;
using sim::Task;
using testing::LossyForwarder;
using testing::LossyPair;

/// Forwarder that delays a random subset of packets by a few ms,
/// reordering them relative to later traffic.
class ReorderingForwarder : public net::Node {
 public:
  using net::Node::Node;
  double reorder_probability = 0.1;
  sim::Duration extra_delay = sim::Duration::millis(3);

  void deliver(net::Packet&& p, net::Interface& in) override {
    auto& out = (interfaces()[0].get() == &in) ? *interfaces()[1]
                                               : *interfaces()[0];
    if (sim_.rng().bernoulli(reorder_probability)) {
      sim_.schedule(extra_delay, [&out, pkt = std::move(p)]() mutable {
        out.send(std::move(pkt));
      });
      return;
    }
    out.send(std::move(p));
  }
};

struct ReorderingPair {
  explicit ReorderingPair(sim::Simulator& sim) : net(sim) {
    a = &net.addHost("a");
    b = &net.addHost("b");
    gate = std::make_unique<ReorderingForwarder>(sim, 901, "reorder");
    auto& fa = gate->addInterface();
    auto& fb = gate->addInterface();
    const double rate = 100e6;
    const auto delay = sim::Duration::micros(500);
    a->nic().connect(fa, rate, delay);
    fa.connect(a->nic(), rate, delay);
    b->nic().connect(fb, rate, delay);
    fb.connect(b->nic(), rate, delay);
  }
  net::Network net;
  net::Host* a;
  net::Host* b;
  std::unique_ptr<ReorderingForwarder> gate;
};

std::int64_t transfer(sim::Simulator& sim, net::Host& from, net::Host& to,
                      std::int64_t total,
                      Duration limit = Duration::seconds(300)) {
  TcpListener listener(to, 5000);
  std::int64_t drained = -1;
  auto server = [](TcpListener& l, std::int64_t n, std::int64_t& out)
      -> Task<> {
    auto s = co_await l.accept();
    out = co_await s->drain(n, /*verify_pattern=*/true);
  };
  auto client = [](net::Host& h, net::NodeId dst, std::int64_t n) -> Task<> {
    auto s = co_await TcpSocket::connect(h, dst, 5000);
    co_await s->sendBulk(n);
    co_await s->flush();
  };
  sim.spawn(server(listener, total, drained));
  sim.spawn(client(from, to.id(), total));
  sim.runFor(limit);
  return drained;
}

TEST(TcpRobustnessTest, SurvivesHeavyReordering) {
  sim::Simulator sim(5);
  ReorderingPair pair(sim);
  pair.gate->reorder_probability = 0.25;
  const auto got = transfer(sim, *pair.a, *pair.b, 500'000);
  EXPECT_EQ(got, 500'000);
}

TEST(TcpRobustnessTest, ReorderingDoesNotCorruptButMayRetransmit) {
  // Spurious fast retransmits from reordering are allowed; corruption and
  // deadlock are not.
  sim::Simulator sim(7);
  ReorderingPair pair(sim);
  pair.gate->reorder_probability = 0.5;
  pair.gate->extra_delay = sim::Duration::millis(1);
  const auto got = transfer(sim, *pair.a, *pair.b, 300'000);
  EXPECT_EQ(got, 300'000);
}

TEST(TcpRobustnessTest, DuplicatedPacketsAreHarmless) {
  sim::Simulator sim(11);
  LossyPair pair(sim);
  // "should_drop" abused as a tap: duplicate 10% of packets by re-sending
  // a copy through the other interface.
  pair.forwarder->should_drop = [&](const net::Packet& p) {
    if (sim.rng().bernoulli(0.1)) {
      auto copy = p;
      // Deliver the duplicate slightly later.
      auto* fwd = pair.forwarder.get();
      sim.schedule(Duration::micros(100), [fwd, copy]() mutable {
        // Route the copy out of the interface towards its destination.
        auto& out = copy.flow.dst == 2 ? *fwd->interfaces()[1]
                                       : *fwd->interfaces()[0];
        out.send(std::move(copy));
      });
    }
    return false;  // never actually drop
  };
  const auto got = transfer(sim, *pair.a, *pair.b, 400'000);
  EXPECT_EQ(got, 400'000);
}

TEST(TcpRobustnessTest, PureAckLossOnlySlowsNeverCorrupts) {
  sim::Simulator sim(13);
  LossyPair pair(sim);
  pair.forwarder->should_drop = [&](const net::Packet& p) {
    const auto* h = p.tcp();
    // Drop 20% of pure ACKs (cumulative ACKs make most redundant).
    return h != nullptr && h->payload.empty() && h->is_ack && !h->syn &&
           !h->fin && sim.rng().bernoulli(0.2);
  };
  const auto got = transfer(sim, *pair.a, *pair.b, 400'000);
  EXPECT_EQ(got, 400'000);
}

TEST(TcpRobustnessTest, SimultaneousBidirectionalTransfers) {
  sim::Simulator sim(17);
  net::Network net(sim);
  auto& a = net.addHost("a");
  auto& b = net.addHost("b");
  net.connect(a, b, net::LinkConfig{});
  net.computeRoutes();

  const std::int64_t total = 300'000;
  std::int64_t got_at_b = -1, got_at_a = -1;
  TcpListener listener_b(b, 5000);
  TcpListener listener_a(a, 5001);
  auto server = [](TcpListener& l, std::int64_t n, std::int64_t& out)
      -> Task<> {
    auto s = co_await l.accept();
    out = co_await s->drain(n, true);
  };
  auto client = [](net::Host& h, net::NodeId dst, net::PortId port,
                   std::int64_t n) -> Task<> {
    auto s = co_await TcpSocket::connect(h, dst, port);
    co_await s->sendBulk(n);
    co_await s->flush();
  };
  sim.spawn(server(listener_b, total, got_at_b));
  sim.spawn(server(listener_a, total, got_at_a));
  sim.spawn(client(a, b.id(), 5000, total));
  sim.spawn(client(b, a.id(), 5001, total));
  sim.runFor(Duration::seconds(120));
  EXPECT_EQ(got_at_b, total);
  EXPECT_EQ(got_at_a, total);
}

TEST(TcpRobustnessTest, SingleSocketFullDuplex) {
  // One connection carrying data both ways at once.
  sim::Simulator sim;
  net::Network net(sim);
  auto& a = net.addHost("a");
  auto& b = net.addHost("b");
  net.connect(a, b, net::LinkConfig{});
  net.computeRoutes();

  const std::int64_t total = 200'000;
  std::int64_t server_got = -1;
  bool client_got = false;
  TcpListener listener(b, 5000);
  auto server = [](TcpListener& l, std::int64_t n, std::int64_t& out)
      -> Task<> {
    auto s = co_await l.accept();
    auto send_side = [](TcpSocket& sock, std::int64_t bytes) -> Task<> {
      co_await sock.sendBulk(bytes);
      co_await sock.flush();
    };
    // Send and receive concurrently on the same socket.
    auto& sim_ref = s->simulator();
    sim_ref.spawn(send_side(*s, n));
    out = co_await s->drain(n, true);
    // Keep the socket alive until our own send flushes.
    co_await sim_ref.delay(Duration::seconds(5));
  };
  auto client = [](net::Host& h, net::NodeId dst, std::int64_t n,
                   bool& ok) -> Task<> {
    auto s = co_await TcpSocket::connect(h, dst, 5000);
    auto send_side = [](TcpSocket& sock, std::int64_t bytes) -> Task<> {
      co_await sock.sendBulk(bytes);
    };
    s->simulator().spawn(send_side(*s, n));
    const auto got = co_await s->drain(n, true);
    ok = got == n;
    co_await s->simulator().delay(Duration::seconds(5));
  };
  sim.spawn(server(listener, total, server_got));
  sim.spawn(client(a, b.id(), total, client_got));
  sim.runFor(Duration::seconds(60));
  EXPECT_EQ(server_got, total);
  EXPECT_TRUE(client_got);
}

class TcpLossSweepTest
    : public ::testing::TestWithParam<std::tuple<double, int>> {};

INSTANTIATE_TEST_SUITE_P(
    LossAndSeed, TcpLossSweepTest,
    ::testing::Combine(::testing::Values(0.002, 0.02, 0.08),
                       ::testing::Values(1, 2, 3)));

TEST_P(TcpLossSweepTest, StreamIntegrityProperty) {
  const auto [loss, seed] = GetParam();
  sim::Simulator sim(static_cast<std::uint64_t>(seed) * 7919);
  LossyPair pair(sim);
  pair.forwarder->should_drop = [&sim, loss = loss](const net::Packet&) {
    return sim.rng().bernoulli(loss);
  };
  const auto got =
      transfer(sim, *pair.a, *pair.b, 200'000, Duration::seconds(600));
  EXPECT_EQ(got, 200'000) << "loss=" << loss << " seed=" << seed;
}

// --- adversarial wire integrity -------------------------------------------

/// transfer() with the server socket's end-of-drain stats copied out.
std::int64_t transferWithStats(sim::Simulator& sim, net::Host& from,
                               net::Host& to, std::int64_t total,
                               TcpStats& server_stats,
                               Duration limit = Duration::seconds(300)) {
  TcpListener listener(to, 5100);
  std::int64_t drained = -1;
  auto server = [](TcpListener& l, std::int64_t n, std::int64_t& out,
                   TcpStats& st) -> Task<> {
    auto s = co_await l.accept();
    out = co_await s->drain(n, /*verify_pattern=*/true);
    st = s->stats();
  };
  auto client = [](net::Host& h, net::NodeId dst, std::int64_t n) -> Task<> {
    auto s = co_await TcpSocket::connect(h, dst, 5100);
    co_await s->sendBulk(n);
    co_await s->flush();
  };
  sim.spawn(server(listener, total, drained, server_stats));
  sim.spawn(client(from, to.id(), total));
  sim.runFor(limit);
  return drained;
}

TEST(TcpIntegrityTest, CorruptedSegmentsDieAtTheChecksumWallNotInTheStream) {
  sim::Simulator sim(19);
  LossyPair pair(sim);
  net::WireFaults wire(pair.a->nic(), /*seed=*/21);
  wire.start(net::WireFaults::Kind::kCorrupt, 0.05);
  const auto& wire_stats = pair.a->nic().stats();

  TcpStats st;
  const auto got =
      transferWithStats(sim, *pair.a, *pair.b, 400'000, st);
  EXPECT_EQ(got, 400'000)
      << "every corrupted segment must be retransmitted clean";
  EXPECT_GT(wire_stats.corrupted, 0u);
  EXPECT_GT(st.checksum_drops, 0u)
      << "receiver must count the corrupted segments it refused";
  EXPECT_LE(st.checksum_drops, wire_stats.corrupted)
      << "conservation: drops cannot exceed corruptions emitted";
  EXPECT_EQ(st.resets, 0u) << "the checksum wall held; no reset";
}

TEST(TcpIntegrityTest, DeliveredCorruptionTriggersCountedResetNotException) {
  // Regression: a pattern mismatch reaching a verifying drain used to
  // throw through the simulator; it must now be a counted, observable
  // connection reset.
  sim::Simulator sim(23);
  net::Network net(sim);
  auto& a = net.addHost("a");
  auto& b = net.addHost("b");
  net.connect(a, b, net::LinkConfig{});
  net.computeRoutes();

  TcpListener listener(b, 5100);
  std::int64_t drained = -1;
  std::uint64_t resets = 0;
  bool reset_seen = false;
  auto server = [](TcpListener& l, std::int64_t& out, std::uint64_t& r,
                   bool& seen) -> Task<> {
    auto s = co_await l.accept();
    out = co_await s->drain(100'000, /*verify_pattern=*/true);
    r = s->stats().resets;
    seen = s->resetDetected();
  };
  auto client = [](net::Host& h, net::NodeId dst) -> Task<> {
    auto s = co_await TcpSocket::connect(h, dst, 5100);
    // Garbage relative to the bulk pattern: byte 0 of the stream must be
    // 0x00, so 0xff bytes trip the verifier immediately.
    const std::vector<std::uint8_t> junk(4096, 0xff);
    co_await s->send(junk);
    co_await s->flush();
  };
  sim.spawn(server(listener, drained, resets, reset_seen));
  sim.spawn(client(a, b.id()));
  sim.runFor(Duration::seconds(30));

  EXPECT_EQ(drained, 0) << "corrupted bytes must not count as consumed";
  EXPECT_EQ(resets, 1u);
  EXPECT_TRUE(reset_seen);
}

TEST(TcpIntegrityTest, DuplicateSynInHandshakeIsReAnsweredNotFatal) {
  sim::Simulator sim(31);
  LossyPair pair(sim);
  // Tap: every SYN (and SYN|ACK) is re-sent 100 us later, so both
  // kSynSent and kSynReceived see their handshake segment twice.
  pair.forwarder->should_drop = [&](const net::Packet& p) {
    const auto* h = p.tcp();
    if (h != nullptr && h->syn) {
      auto copy = p;
      auto* fwd = pair.forwarder.get();
      sim.schedule(Duration::micros(100), [fwd, copy]() mutable {
        auto& out = copy.flow.dst == 2 ? *fwd->interfaces()[1]
                                       : *fwd->interfaces()[0];
        out.send(std::move(copy));
      });
    }
    return false;
  };
  TcpStats st;
  const auto got = transferWithStats(sim, *pair.a, *pair.b, 100'000, st);
  EXPECT_EQ(got, 100'000);
}

TEST(TcpIntegrityTest, LateDuplicatesAreCountedStaleNeverRedelivered) {
  sim::Simulator sim(37);
  LossyPair pair(sim);
  // Tap: 20% of data segments are echoed 2 ms later — long past their
  // delivery, so the echo arrives entirely below rcv_nxt.
  pair.forwarder->should_drop = [&](const net::Packet& p) {
    const auto* h = p.tcp();
    if (h != nullptr && !h->payload.empty() && sim.rng().bernoulli(0.2)) {
      auto copy = p;
      auto* fwd = pair.forwarder.get();
      sim.schedule(Duration::millis(2), [fwd, copy]() mutable {
        auto& out = copy.flow.dst == 2 ? *fwd->interfaces()[1]
                                       : *fwd->interfaces()[0];
        out.send(std::move(copy));
      });
    }
    return false;
  };
  TcpStats st;
  const auto got = transferWithStats(sim, *pair.a, *pair.b, 300'000, st);
  EXPECT_EQ(got, 300'000) << "pattern verify: stale echoes never redeliver";
  EXPECT_GT(st.stale_segments, 0u);
}

TEST(TcpIntegrityTest, ForgedSegmentsExerciseReassemblyEdgeCases) {
  // Drives the receiver's reassembly hardening directly: out-of-order
  // segments beyond the budget evict deterministically (largest sequence
  // first), an exact-duplicate out-of-order segment is counted not
  // stored twice, a fully-stale segment re-ACKs, and a bad checksum is
  // dropped on the floor. The server's ACKs are blackholed so the
  // passive client never sees acknowledgements for forged bytes.
  sim::Simulator sim(29);
  net::Network net(sim);
  auto& a = net.addHost("a");
  auto& b = net.addHost("b");
  net.connect(a, b, net::LinkConfig{});
  net.computeRoutes();

  TcpConfig server_cfg;
  server_cfg.recv_buffer_bytes = 8192;
  TcpListener listener(b, 5100, server_cfg);
  TcpSocket* srv = nullptr;
  auto server = [](TcpListener& l, TcpSocket** out) -> Task<> {
    auto s = co_await l.accept();
    *out = s.get();
    co_await s->drain(1'000'000);  // parked for the whole test
  };
  auto client = [](net::Host& h, net::NodeId dst) -> Task<> {
    auto s = co_await TcpSocket::connect(h, dst, 5100);
    std::uint8_t tmp[16];
    co_await s->recv(tmp);  // parked: sends nothing after the handshake
  };
  sim.spawn(server(listener, &srv));
  sim.spawn(client(a, b.id()));

  net::WireFaults mute(b.nic(), /*seed=*/1);
  sim.schedule(Duration::millis(400), [&mute] { mute.partition(); });

  auto forge = [&](std::uint64_t seq, std::size_t len, bool good_checksum) {
    net::TcpHeader h;
    h.seq = seq;
    h.payload = net::BufSlice::fill(len, 0x77);
    h.checksum = net::tcpWireChecksum(h) ^ (good_checksum ? 0u : 0xdeadbeefu);
    net::Packet p;
    p.size_bytes = static_cast<std::int32_t>(len) + 40;
    p.header = std::move(h);
    srv->onPacket(std::move(p));
  };

  sim.schedule(Duration::millis(500), [&] {
    ASSERT_NE(srv, nullptr);
    // 9 x 1000 B beyond the hole at [1, 2000]: 9000 B exceeds the 8192 B
    // budget, so exactly the largest-sequence segment is evicted.
    for (int k = 0; k < 9; ++k) forge(2001 + 1000 * k, 1000, true);
    forge(2001, 1000, true);  // exact duplicate of a parked segment
  });
  sim.schedule(Duration::millis(1000), [&] {
    forge(1, 100, true);  // in-order trickle: delivers, hole persists
  });
  sim.schedule(Duration::millis(1500), [&] {
    forge(1, 50, true);           // entirely below rcv_nxt: stale
    forge(12001, 500, false);     // corrupted: dropped before reassembly
  });
  sim.runFor(Duration::seconds(3));

  ASSERT_NE(srv, nullptr);
  const auto& st = srv->stats();
  EXPECT_EQ(st.ooo_evictions, 1u);
  EXPECT_EQ(st.ooo_duplicates, 1u);
  EXPECT_GE(st.stale_segments, 1u);
  EXPECT_EQ(st.checksum_drops, 1u);
  EXPECT_LE(srv->outOfOrderBytes(),
            static_cast<std::int64_t>(server_cfg.recv_buffer_bytes))
      << "reassembly buffer must respect its budget";
  EXPECT_EQ(srv->outOfOrderBytes(), 8000);
  EXPECT_EQ(srv->bytesDelivered(), 100);
}

TEST(TcpConfigTest, TinyMssStillCorrect) {
  sim::Simulator sim;
  net::Network net(sim);
  auto& a = net.addHost("a");
  auto& b = net.addHost("b");
  net.connect(a, b, net::LinkConfig{});
  net.computeRoutes();
  TcpConfig cfg;
  cfg.mss = 100;
  TcpListener listener(b, 5000, cfg);
  std::int64_t drained = -1;
  auto server = [](TcpListener& l, std::int64_t& out) -> Task<> {
    auto s = co_await l.accept();
    out = co_await s->drain(50'000, true);
  };
  auto client = [](net::Host& h, net::NodeId dst, TcpConfig c) -> Task<> {
    auto s = co_await TcpSocket::connect(h, dst, 5000, c);
    co_await s->sendBulk(50'000);
    co_await s->flush();
  };
  sim.spawn(server(listener, drained));
  sim.spawn(client(a, b.id(), cfg));
  sim.runFor(Duration::seconds(120));
  EXPECT_EQ(drained, 50'000);
}

TEST(TcpConfigTest, FlightNeverExceedsReceiverWindow) {
  sim::Simulator sim;
  net::Network net(sim);
  auto& a = net.addHost("a");
  auto& b = net.addHost("b");
  net.connect(a, b, net::LinkConfig{});
  net.computeRoutes();
  TcpConfig cfg;
  cfg.recv_buffer_bytes = 16 * 1024;
  cfg.send_buffer_bytes = 256 * 1024;
  TcpListener listener(b, 5000, cfg);
  TcpSocket* sender = nullptr;
  std::int64_t max_flight = 0;
  auto server = [](TcpListener& l) -> Task<> {
    auto s = co_await l.accept();
    (void)co_await s->drain(INT64_MAX / 2, false);
  };
  auto client = [](net::Host& h, net::NodeId dst, TcpConfig c,
                   TcpSocket*& out) -> Task<> {
    auto s = co_await TcpSocket::connect(h, dst, 5000, c);
    out = s.get();
    co_await s->sendBulk(INT64_MAX / 4);
  };
  auto monitor = [](sim::Simulator& s, TcpSocket*& sock,
                    std::int64_t& peak) -> Task<> {
    for (int i = 0; i < 1000; ++i) {
      co_await s.delay(Duration::millis(1));
      if (sock != nullptr) peak = std::max(peak, sock->bytesInFlight());
    }
  };
  sim.spawn(server(listener));
  sim.spawn(client(a, b.id(), cfg, sender));
  sim.spawn(monitor(sim, sender, max_flight));
  sim.runFor(Duration::seconds(2));
  EXPECT_GT(max_flight, 0);
  EXPECT_LE(max_flight, 16 * 1024 + cfg.mss);  // window plus one probe
}

}  // namespace
}  // namespace mgq::tcp
