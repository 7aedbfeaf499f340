// Pattern-tagged payloads end to end: the wire checksum folds the tag,
// every single-bit corruption of a tagged segment (direct or gathered
// across ring chunks) fails it, the corruption injector's clone is the
// pattern with one bit flipped, and a verifying drain checks tagged runs
// and byte runs of one stream alike.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <vector>

#include "net/faults.hpp"
#include "net/network.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "tcp/stream_ring.hpp"
#include "tcp/tcp_socket.hpp"

namespace mgq::tcp {
namespace {

using sim::Task;

constexpr std::uint8_t kPhases[] = {0x00, 0x01, 0x7f, 0xff};
constexpr std::uint32_t kLengths[] = {1, 7, 8, 9, 1460};

net::BufSlice taggedSlice(std::uint32_t n, std::uint8_t phase) {
  net::BufSlice s{net::BufferPool::local().allocate(n), 0, n};
  s.buffer->tagPattern(phase);
  return s;
}

net::TcpHeader stamped(net::BufSlice payload) {
  net::TcpHeader h;
  h.seq = 4242;
  h.ack = 17;
  h.window = 65535;
  h.is_ack = true;
  h.payload = std::move(payload);
  h.checksum = net::tcpWireChecksum(h);
  return h;
}

// Every clone the corruption injector could make of `h`'s tagged payload
// (the pattern written out, then one bit flipped) must fail the checksum
// `h` was stamped with.
void expectEveryBitFlipFails(const net::TcpHeader& h) {
  ASSERT_TRUE(h.payload.isPattern());
  const auto n = h.payload.length;
  net::TcpHeader clone = h;
  clone.payload = net::BufSlice{net::BufferPool::local().allocate(n), 0, n};
  std::uint8_t* bytes = clone.payload.buffer->data();
  for (std::uint32_t i = 0; i < n; ++i) {
    bytes[i] = static_cast<std::uint8_t>(h.payload.patternPhase() + i);
  }
  ASSERT_FALSE(clone.payload.isPattern());
  for (std::uint32_t bit = 0; bit < n * 8; ++bit) {
    const auto mask = static_cast<std::uint8_t>(1u << (bit % 8));
    bytes[bit / 8] ^= mask;
    ASSERT_NE(net::tcpWireChecksum(clone), h.checksum)
        << "length " << n << " phase " << int{h.payload.patternPhase()}
        << " bit " << bit;
    bytes[bit / 8] ^= mask;
  }
}

TEST(PatternPayloadTest, UntouchedTaggedSegmentPassesItsChecksum) {
  for (const auto phase : kPhases) {
    for (const auto len : kLengths) {
      const auto h = stamped(taggedSlice(len, phase));
      EXPECT_EQ(net::tcpWireChecksum(h), h.checksum);
      // The fold covers the content, not the buffer: a window of a larger
      // tagged buffer holding the same bytes stamps the same checksum.
      const auto wider =
          taggedSlice(len + 100, static_cast<std::uint8_t>(phase - 37));
      EXPECT_EQ(stamped(wider.subslice(37, len)).checksum, h.checksum);
    }
  }
}

TEST(PatternPayloadTest, EverySingleBitCorruptionOfATaggedSegmentFails) {
  for (const auto phase : kPhases) {
    for (const auto len : kLengths) {
      expectEveryBitFlipFails(stamped(taggedSlice(len, phase)));
      if (HasFatalFailure()) return;
    }
  }
}

TEST(PatternPayloadTest, EverySingleBitCorruptionOfAGatheredSegmentFails) {
  StreamRing ring(/*chunk_bytes=*/256);
  ring.appendPattern(0, 1000);
  for (const std::int64_t offset : {200, 250, 511}) {
    const auto s = ring.slice(offset, 300);  // straddles chunk boundaries
    ASSERT_TRUE(s.isPattern()) << "a gather over one pattern run is tagged";
    EXPECT_EQ(s.patternPhase(), static_cast<std::uint8_t>(offset));
    expectEveryBitFlipFails(stamped(s));
    if (HasFatalFailure()) return;
  }
}

/// Keeps every TCP header reaching a bound port.
struct HeaderSink : net::PacketReceiver {
  std::vector<net::TcpHeader> headers;
  void onPacket(net::Packet p) override {
    if (const auto* h = p.tcp()) headers.push_back(*h);
  }
};

TEST(PatternPayloadTest, CorruptionCloneIsThePatternWithOneBitFlipped) {
  sim::Simulator sim;
  net::Network network(sim);
  auto& src = network.addHost("src");
  auto& dst = network.addHost("dst");
  network.connect(src, dst, net::LinkConfig{});
  network.computeRoutes();
  HeaderSink sink;
  dst.bind(net::Protocol::kTcp, 7, &sink);
  net::WireFaults wire(src.nic(), /*seed=*/5);
  wire.start(net::WireFaults::Kind::kCorrupt, 1.0);

  const net::FlowKey flow{src.id(), dst.id(), 1000, 7, net::Protocol::kTcp};
  std::vector<net::BufSlice> originals;
  for (const auto phase : kPhases) {
    originals.push_back(taggedSlice(1460, phase));
    net::Packet p;
    p.flow = flow;
    p.size_bytes = 1460 + 40;
    p.header = stamped(originals.back());
    src.sendPacket(std::move(p));
  }
  sim.run();

  EXPECT_EQ(src.nic().stats().corrupted, std::size(kPhases));
  ASSERT_EQ(sink.headers.size(), std::size(kPhases));
  for (std::size_t k = 0; k < sink.headers.size(); ++k) {
    const auto& h = sink.headers[k];
    ASSERT_EQ(h.payload.size(), 1460u);
    EXPECT_FALSE(h.payload.isPattern()) << "the clone holds real bytes";
    EXPECT_NE(net::tcpWireChecksum(h), h.checksum);
    int flipped_bits = 0;
    for (std::uint32_t i = 0; i < 1460; ++i) {
      flipped_bits += __builtin_popcount(
          h.payload[i] ^ static_cast<std::uint8_t>(kPhases[k] + i));
    }
    EXPECT_EQ(flipped_bits, 1) << "phase " << int{kPhases[k]};
    EXPECT_TRUE(originals[k].isPattern())
        << "the shared original keeps its tag";
  }
}

struct DrainOutcome {
  std::int64_t drained = -1;
  std::uint64_t resets = 0;
};

constexpr std::int64_t kRun = 100'000;
constexpr std::int64_t kMiddle = 4096;

/// One connection carrying sendBulk(kRun) → send(middle) → sendBulk(kRun),
/// drained whole with verification. The middle bytes are the pattern's
/// own bytes, or every one of them inverted (`junk`).
DrainOutcome drainMixedStream(bool junk) {
  sim::Simulator sim(29);
  net::Network net(sim);
  auto& a = net.addHost("a");
  auto& b = net.addHost("b");
  net.connect(a, b, net::LinkConfig{});
  net.computeRoutes();

  std::vector<std::uint8_t> middle(static_cast<std::size_t>(kMiddle));
  for (std::int64_t i = 0; i < kMiddle; ++i) {
    const auto byte = static_cast<std::uint8_t>((kRun + i) & 0xff);
    middle[static_cast<std::size_t>(i)] =
        junk ? static_cast<std::uint8_t>(~byte) : byte;
  }

  TcpListener listener(b, 5300);
  DrainOutcome out;
  auto server = [](TcpListener& l, DrainOutcome& r) -> Task<> {
    auto s = co_await l.accept();
    r.drained = co_await s->drain(2 * kRun + kMiddle, /*verify_pattern=*/true);
    r.resets = s->stats().resets;
  };
  auto client = [](net::Host& h, net::NodeId dst,
                   const std::vector<std::uint8_t>& bytes) -> Task<> {
    auto s = co_await TcpSocket::connect(h, dst, 5300);
    co_await s->sendBulk(kRun);
    co_await s->send(bytes);
    co_await s->sendBulk(kRun);
    co_await s->flush();
  };
  sim.spawn(server(listener, out));
  sim.spawn(client(a, b.id(), middle));
  sim.runFor(sim::Duration::seconds(30));
  return out;
}

TEST(PatternPayloadTest, MixedStreamWithJunkResetsOnceAtTheJunkChunk) {
  const auto out = drainMixedStream(/*junk=*/true);
  EXPECT_EQ(out.resets, 1u);
  // Everything consumed before the reset is the first tagged run; the
  // piece holding the junk is not counted.
  EXPECT_GT(out.drained, 0);
  EXPECT_LE(out.drained, kRun);
}

TEST(PatternPayloadTest, MixedStreamWithPatternBytesDrainsFullyWithoutReset) {
  const auto out = drainMixedStream(/*junk=*/false);
  EXPECT_EQ(out.drained, 2 * kRun + kMiddle);
  EXPECT_EQ(out.resets, 0u);
}

}  // namespace
}  // namespace mgq::tcp
