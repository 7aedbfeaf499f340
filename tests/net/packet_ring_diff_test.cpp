// Differential test: PacketRing against a std::deque<Packet>. Seeded
// random push_back / pop_front / pop_back / takeFront / indexed-read
// sequences alternate growth and drain phases, so the ring doubles many
// times, often while its live range wraps around the end of the storage.
// Each push hands the ring and the model twin packets whose payloads are
// separate pooled buffers, so every buffer's lifetime is decided by one
// container alone: a packet the ring leaks, or destroys early, shows as a
// pool live-byte count that no longer matches twice the model's.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <optional>
#include <utility>

#include "net/buffer.hpp"
#include "net/packet.hpp"
#include "net/packet_ring.hpp"
#include "sim/random.hpp"

namespace mgq::net {
namespace {

std::int64_t liveBytes() { return BufferPool::local().stats().live_bytes; }

Packet makePacket(std::uint64_t id, std::size_t payload_bytes) {
  TcpHeader h;
  h.seq = id;
  h.payload = BufSlice::fill(payload_bytes, static_cast<std::uint8_t>(id));
  Packet p;
  p.id = id;
  p.size_bytes = static_cast<std::int32_t>(payload_bytes) + kIpHeaderBytes +
                 kTcpHeaderBytes;
  p.header = std::move(h);
  return p;
}

std::int64_t payloadCapacity(const Packet& p) {
  return p.tcp()->payload.buffer->capacity();
}

// Same packet, distinct payload buffers holding the same bytes.
void expectTwin(const Packet& got, const Packet& want) {
  ASSERT_EQ(got.id, want.id);
  ASSERT_EQ(got.size_bytes, want.size_bytes);
  const TcpHeader* g = got.tcp();
  ASSERT_NE(g, nullptr);
  ASSERT_EQ(g->seq, want.tcp()->seq);
  ASSERT_EQ(g->payload.length, want.tcp()->payload.length);
  ASSERT_NE(g->payload.buffer.get(), want.tcp()->payload.buffer.get());
  ASSERT_EQ(g->payload[0], want.tcp()->payload[0]);
  ASSERT_EQ(g->payload[g->payload.length - 1],
            want.tcp()->payload[g->payload.length - 1]);
}

struct DiffCounts {
  std::uint64_t pushes = 0;
  std::uint64_t pop_fronts = 0;
  std::uint64_t pop_backs = 0;
  std::uint64_t takes = 0;
  std::uint64_t reads = 0;
  std::size_t max_size = 0;
};

void runDifferential(std::uint64_t seed, int ops, DiffCounts& counts) {
  sim::Rng rng(seed);
  const std::int64_t live_before = liveBytes();
  std::int64_t model_bytes = 0;  // payload capacity the model holds
  std::uint64_t next_id = 1;
  std::deque<Packet> model;
  {
    PacketRing ring;
    for (int op = 0; op < ops; ++op) {
      SCOPED_TRACE(op);
      // Alternate growth and drain phases so the ring is sometimes deep
      // and sometimes empty; pop_front in both keeps the head moving, so
      // growth often unwraps a range that crosses the end of the storage.
      const bool grow = (op / 4096) % 2 == 0;
      const auto r = rng.uniformInt(0, 99);
      if (r < (grow ? 60 : 25)) {
        // Mostly MTU-sized payloads, with the pool's small and large size
        // classes and an occasional exact-size buffer mixed in.
        const auto cls = rng.uniformInt(0, 19);
        const std::int64_t bytes = cls < 4    ? rng.uniformInt(1, 256)
                                   : cls < 18 ? rng.uniformInt(257, 1500)
                                   : cls < 19 ? rng.uniformInt(1501, 65536)
                                              : 70000;
        const std::uint64_t id = next_id++;
        ring.push_back(makePacket(id, static_cast<std::size_t>(bytes)));
        model.push_back(makePacket(id, static_cast<std::size_t>(bytes)));
        model_bytes += payloadCapacity(model.back());
        ++counts.pushes;
      } else if (r < (grow ? 70 : 50)) {
        if (model.empty()) continue;
        model_bytes -= payloadCapacity(model.front());
        ring.pop_front();
        model.pop_front();
        ++counts.pop_fronts;
      } else if (r < (grow ? 75 : 70)) {
        if (model.empty()) continue;
        model_bytes -= payloadCapacity(model.back());
        ring.pop_back();
        model.pop_back();
        ++counts.pop_backs;
      } else if (r < 85) {
        if (model.empty()) continue;
        std::optional<Packet> taken = ring.takeFront();
        ASSERT_TRUE(taken.has_value());
        expectTwin(*taken, model.front());
        if (::testing::Test::HasFatalFailure()) return;
        model_bytes -= payloadCapacity(model.front());
        model.pop_front();
        ++counts.takes;
      } else {
        if (model.empty()) continue;
        const auto i = static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(model.size()) - 1));
        expectTwin(ring[i], model[i]);
        if (::testing::Test::HasFatalFailure()) return;
        ++counts.reads;
      }

      ASSERT_EQ(ring.size(), model.size());
      ASSERT_EQ(ring.empty(), model.empty());
      if (!model.empty()) {
        expectTwin(ring.front(), model.front());
        expectTwin(ring.back(), model.back());
        if (::testing::Test::HasFatalFailure()) return;
      }
      // The ring holds exactly one twin of every packet the model holds.
      ASSERT_EQ(liveBytes() - live_before, 2 * model_bytes);
      counts.max_size = std::max(counts.max_size, model.size());
    }
    // The ring dies with packets still in it.
    ASSERT_FALSE(ring.empty());
  }
  EXPECT_EQ(liveBytes() - live_before, model_bytes)
      << "destroying the ring leaked or released the wrong payloads";
  model.clear();
  EXPECT_EQ(liveBytes() - live_before, 0);
}

TEST(PacketRingDiffTest, RandomOperationsMatchDequeReference) {
  DiffCounts counts;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    runDifferential(seed, 100'000, counts);
    if (HasFatalFailure()) return;
  }
  // Every operation is reached often, and the ring gets deep enough to
  // double from its initial capacity many times.
  EXPECT_GT(counts.pushes, 50'000u);
  EXPECT_GT(counts.pop_fronts, 10'000u);
  EXPECT_GT(counts.pop_backs, 10'000u);
  EXPECT_GT(counts.takes, 10'000u);
  EXPECT_GT(counts.reads, 10'000u);
  EXPECT_GT(counts.max_size, 1'000u);
}

}  // namespace
}  // namespace mgq::net
