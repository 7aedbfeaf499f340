// Differential test: StreamRing against a std::deque<uint8_t> reference.
// Seeded random operation sequences mix every append path (copied bytes,
// pattern tags, adopted slices of tagged and byte buffers), pops, slices,
// raw reads and the front verify. They include pattern runs interrupted by
// byte runs, phase breaks and gather windows over tagged chunks. Every
// read must agree with the reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <thread>
#include <vector>

#include "net/buffer.hpp"
#include "sim/random.hpp"
#include "tcp/stream_ring.hpp"

namespace mgq::tcp {
namespace {

std::uint8_t patternByte(std::int64_t stream_offset) {
  return static_cast<std::uint8_t>(stream_offset & 0xff);
}

struct DiffCounts {
  std::uint64_t verify_true = 0;
  std::uint64_t verify_false = 0;
  std::uint64_t tagged_gathers = 0;
};

// Streams `ops` random operations through a ring and the reference model.
// Stream offsets count appended bytes, so a pattern run appended at
// `tail` continues the stream's phase and any other offset breaks it.
void runDifferential(std::uint64_t seed, int ops, DiffCounts& counts) {
  sim::Rng rng(seed);
  const std::int32_t chunk_bytes = rng.bernoulli(0.5) ? 256 : 1024;
  StreamRing ring(chunk_bytes);
  std::deque<std::uint8_t> ref;
  std::int64_t head = 0;  // stream offset of ref.front()
  std::int64_t tail = 0;  // stream offset one past ref.back()

  auto window = [&](std::int64_t max_len, std::int64_t& off,
                    std::int64_t& len) {
    const auto size = static_cast<std::int64_t>(ref.size());
    off = rng.uniformInt(0, size - 1);
    len = rng.uniformInt(1, std::min(size - off, max_len));
  };

  for (int op = 0; op < ops; ++op) {
    const auto size = static_cast<std::int64_t>(ref.size());
    switch (rng.uniformInt(0, 9)) {
      case 0:
      case 1: {  // pattern run, sometimes with a phase break
        const auto n = rng.uniformInt(1, 700);
        const auto at =
            rng.bernoulli(0.15) ? rng.uniformInt(0, 1 << 20) : tail;
        ring.appendPattern(at, n);
        for (std::int64_t i = 0; i < n; ++i) ref.push_back(patternByte(at + i));
        tail += n;
        break;
      }
      case 2: {  // byte run: the pattern's own bytes, or junk
        const auto n = rng.uniformInt(1, 400);
        const bool junk = rng.bernoulli(0.5);
        std::vector<std::uint8_t> data(static_cast<std::size_t>(n));
        for (std::int64_t i = 0; i < n; ++i) {
          data[static_cast<std::size_t>(i)] =
              junk ? static_cast<std::uint8_t>(rng.uniformInt(0, 255))
                   : patternByte(tail + i);
        }
        ring.append(data);
        ref.insert(ref.end(), data.begin(), data.end());
        tail += n;
        break;
      }
      case 3: {  // adopted window of a tagged or a byte buffer
        const auto n = static_cast<std::uint32_t>(rng.uniformInt(1, 300));
        const auto skip = static_cast<std::uint32_t>(rng.uniformInt(0, 100));
        net::BufSlice s{net::BufferPool::local().allocate(n + skip), skip, n};
        if (rng.bernoulli(0.5)) {
          const auto phase = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
          s.buffer->tagPattern(phase);
          for (std::uint32_t i = 0; i < n; ++i) {
            ref.push_back(static_cast<std::uint8_t>(phase + skip + i));
          }
        } else {
          std::uint8_t* bytes = s.buffer->data();
          for (std::uint32_t i = 0; i < n + skip; ++i) {
            bytes[i] = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
          }
          ref.insert(ref.end(), bytes + skip, bytes + skip + n);
        }
        ring.appendSlice(std::move(s));
        tail += n;
        break;
      }
      case 4: {  // pop
        if (size == 0) break;
        const auto n = rng.uniformInt(1, std::min<std::int64_t>(size, 900));
        ring.popFront(n);
        ref.erase(ref.begin(), ref.begin() + n);
        head += n;
        break;
      }
      case 5: {  // slice: zero-copy view, tagged gather or byte gather
        if (size == 0) break;
        std::int64_t off = 0, len = 0;
        window(1500, off, len);
        const auto s = ring.slice(off, static_cast<std::int32_t>(len));
        ASSERT_EQ(s.size(), static_cast<std::size_t>(len));
        // Mostly compare through the tag, so later operations still see
        // unwritten tagged chunks; sometimes read raw bytes, which makes
        // the buffer write its pattern out.
        if (s.isPattern() && !rng.bernoulli(0.125)) {
          if (len > 1) ++counts.tagged_gathers;
          for (std::int64_t i = 0; i < len; ++i) {
            ASSERT_EQ(static_cast<std::uint8_t>(s.patternPhase() + i),
                      ref[static_cast<std::size_t>(off + i)])
                << "seed " << seed << " op " << op << " byte " << i;
          }
        } else {
          for (std::int64_t i = 0; i < len; ++i) {
            ASSERT_EQ(s[static_cast<std::size_t>(i)],
                      ref[static_cast<std::size_t>(off + i)])
                << "seed " << seed << " op " << op << " byte " << i;
          }
        }
        break;
      }
      case 6: {  // copyOut
        if (size == 0) break;
        std::int64_t off = 0, len = 0;
        window(2000, off, len);
        std::vector<std::uint8_t> out(static_cast<std::size_t>(len));
        ring.copyOut(off, out);
        ASSERT_TRUE(std::equal(out.begin(), out.end(), ref.begin() + off))
            << "seed " << seed << " op " << op;
        break;
      }
      case 7: {  // byteAt
        if (size == 0) break;
        const auto off = rng.uniformInt(0, size - 1);
        ASSERT_EQ(ring.byteAt(off), ref[static_cast<std::size_t>(off)])
            << "seed " << seed << " op " << op;
        break;
      }
      case 8:
      case 9: {  // front verify, usually at the stream's own offset
        if (size == 0) break;
        const auto n = rng.uniformInt(1, std::min<std::int64_t>(size, 3000));
        const auto at = rng.bernoulli(0.85) ? head : rng.uniformInt(0, 255);
        bool expect = true;
        for (std::int64_t i = 0; i < n && expect; ++i) {
          expect = ref[static_cast<std::size_t>(i)] == patternByte(at + i);
        }
        ASSERT_EQ(ring.frontIsPattern(n, static_cast<std::uint64_t>(at)),
                  expect)
            << "seed " << seed << " op " << op;
        ++(expect ? counts.verify_true : counts.verify_false);
        break;
      }
    }
    ASSERT_EQ(ring.size(), static_cast<std::int64_t>(ref.size()));
    if (ref.size() > 16384) {  // keep the working set small
      const auto n = static_cast<std::int64_t>(ref.size()) - 4096;
      ring.popFront(n);
      ref.erase(ref.begin(), ref.begin() + n);
      head += n;
    }
  }
  ring.popFront(ring.size());
  EXPECT_EQ(ring.chunkCount(), 0u);
}

TEST(StreamRingDiffTest, RandomOperationsMatchDequeReference) {
  const auto live_before = net::BufferPool::totalLive();
  DiffCounts counts;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    runDifferential(seed, 100'000, counts);
    if (HasFatalFailure()) return;
  }
  // The sequences reach both verify outcomes and tagged gathers, so the
  // comparison covers the tag paths, not only byte copies.
  EXPECT_GT(counts.verify_true, 1000u);
  EXPECT_GT(counts.verify_false, 1000u);
  EXPECT_GT(counts.tagged_gathers, 1000u);
  EXPECT_EQ(net::BufferPool::totalLive(), live_before);
}

// A TCP sender's use of its ring, run on a fresh thread so the thread's
// pool stats start at zero: bulk appends in random bites, MSS slices kept
// in flight, ACKs popping the front.
net::BufferPoolStats streamThroughRing(bool tagged) {
  net::BufferPoolStats stats;
  std::thread worker([&stats, tagged] {
    {
      constexpr std::int64_t kTotal = 4'000'000;
      constexpr std::int64_t kMss = 1460;
      sim::Rng rng(7);
      StreamRing ring;
      std::deque<net::BufSlice> in_flight;
      std::int64_t appended = 0, sent = 0, acked = 0;
      while (appended < kTotal) {
        const auto n = rng.uniformInt(1, 64 * 1024);
        if (tagged) {
          ring.appendPattern(appended, n);
        } else {
          std::vector<std::uint8_t> bytes(static_cast<std::size_t>(n));
          for (std::int64_t i = 0; i < n; ++i) {
            bytes[static_cast<std::size_t>(i)] = patternByte(appended + i);
          }
          ring.append(bytes);
        }
        appended += n;
        while (sent < appended) {
          const auto len = std::min(kMss, appended - sent);
          in_flight.push_back(
              ring.slice(sent - acked, static_cast<std::int32_t>(len)));
          sent += len;
          if (in_flight.size() > 24) {
            const auto done =
                static_cast<std::int64_t>(in_flight.front().size());
            ring.popFront(done);
            acked += done;
            in_flight.pop_front();
          }
        }
      }
    }
    stats = net::BufferPool::local().stats();
  });
  worker.join();
  return stats;
}

TEST(StreamRingDiffTest, PatternTagsAllocateExactlyLikeMaterializedBytes) {
  const auto tagged = streamThroughRing(/*tagged=*/true);
  const auto bytes = streamThroughRing(/*tagged=*/false);
  EXPECT_GT(tagged.allocations, 0u);
  EXPECT_EQ(tagged.allocations, bytes.allocations);
  EXPECT_EQ(tagged.high_water_bytes, bytes.high_water_bytes);
}

}  // namespace
}  // namespace mgq::tcp
