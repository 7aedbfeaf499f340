// tcpWireChecksum's real-byte branch against a plain reference model: one
// loop over the payload's words, word i feeding lane i mod 4 inside the
// whole 32-byte blocks and lane 0 after them, the length-tagged tail into
// lane 0. Also checks the property the receiver relies on — every single
// flipped bit, of the payload or of a header field, changes the checksum —
// and that trailing zero bytes are not invisible.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <set>
#include <vector>

#include "net/buffer.hpp"
#include "net/packet.hpp"

namespace mgq::net {
namespace {

constexpr std::uint64_t kPrime = 0x100000001b3ull;

std::uint32_t referenceChecksum(const TcpHeader& h) {
  const auto mix = FlowKeyHash::mix;
  std::uint64_t acc = mix(h.seq) ^ mix(~h.ack) ^
                      mix((std::uint64_t{h.window} << 3) |
                          (std::uint64_t{h.syn} << 2) |
                          (std::uint64_t{h.fin} << 1) | h.is_ack);
  const std::size_t n = h.payload.size();
  const std::uint8_t* bytes = n == 0 ? nullptr : h.payload.data();
  const std::size_t words = n / 8;
  const std::size_t blocked = words - words % 4;
  std::uint64_t lane[4] = {kPrime, kPrime, kPrime, kPrime};
  for (std::size_t i = 0; i < words; ++i) {
    std::uint64_t w;
    std::memcpy(&w, bytes + 8 * i, 8);
    auto& c = lane[i < blocked ? i % 4 : 0];
    c = (c ^ w) * kPrime;
  }
  if (const std::size_t tail = n % 8; tail > 0) {
    std::uint64_t w = 0;
    std::memcpy(&w, bytes + 8 * words, tail);
    lane[0] = (lane[0] ^ w ^ (std::uint64_t{tail} << 56)) * kPrime;
  }
  acc ^= mix(lane[0] ^ n) ^ mix(lane[1] + 1) ^ mix(lane[2] + 2) ^
         mix(lane[3] + 3);
  return static_cast<std::uint32_t>(acc ^ (acc >> 32));
}

/// A header whose payload is `bytes`, placed `offset` bytes into a pooled
/// buffer so the words the checksum loads are unaligned for offset % 8.
TcpHeader segment(const std::vector<std::uint8_t>& bytes,
                  std::uint32_t offset) {
  const auto n = static_cast<std::uint32_t>(bytes.size());
  TcpHeader h;
  h.seq = 0x0123456789abcdefull;
  h.ack = 4242;
  h.window = 65535;
  h.is_ack = true;
  h.payload = BufSlice{BufferPool::local().allocate(offset + n), offset, n};
  if (n > 0) std::memcpy(h.payload.buffer->data() + offset, bytes.data(), n);
  return h;
}

std::vector<std::uint8_t> randomBytes(std::mt19937_64& rng, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

TEST(WireChecksumTest, MatchesThePlainReferenceAtEveryLengthAndOffset) {
  std::mt19937_64 rng(20001);
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 200; ++n) lengths.push_back(n);
  for (std::size_t n = 1400; n <= 1500; ++n) lengths.push_back(n);
  for (const auto n : lengths) {
    const auto bytes = randomBytes(rng, n);
    for (std::uint32_t offset = 0; offset < 8; ++offset) {
      const auto h = segment(bytes, offset);
      ASSERT_FALSE(h.payload.isPattern());
      ASSERT_EQ(tcpWireChecksum(h), referenceChecksum(h))
          << "length " << n << " offset " << offset;
    }
  }
}

TEST(WireChecksumTest, EveryPayloadBitFlipChangesTheChecksum) {
  std::mt19937_64 rng(20002);
  std::vector<std::size_t> lengths;
  for (std::size_t n = 1; n <= 72; ++n) lengths.push_back(n);
  lengths.push_back(1460);
  for (const auto n : lengths) {
    auto h = segment(randomBytes(rng, n), 3);
    const auto stamped = tcpWireChecksum(h);
    std::uint8_t* bytes = h.payload.buffer->data() + h.payload.offset;
    for (std::size_t bit = 0; bit < n * 8; ++bit) {
      const auto mask = static_cast<std::uint8_t>(1u << (bit % 8));
      bytes[bit / 8] ^= mask;
      ASSERT_NE(tcpWireChecksum(h), stamped)
          << "length " << n << " bit " << bit;
      bytes[bit / 8] ^= mask;
    }
    ASSERT_EQ(tcpWireChecksum(h), stamped);
  }
}

TEST(WireChecksumTest, EveryHeaderBitFlipChangesTheChecksum) {
  std::mt19937_64 rng(20003);
  auto h = segment(randomBytes(rng, 100), 0);
  const auto stamped = tcpWireChecksum(h);
  auto expectChanged = [&](const char* field, int bit) {
    EXPECT_NE(tcpWireChecksum(h), stamped) << field << " bit " << bit;
  };
  for (int bit = 0; bit < 64; ++bit) {
    h.seq ^= std::uint64_t{1} << bit;
    expectChanged("seq", bit);
    h.seq ^= std::uint64_t{1} << bit;
    h.ack ^= std::uint64_t{1} << bit;
    expectChanged("ack", bit);
    h.ack ^= std::uint64_t{1} << bit;
  }
  for (int bit = 0; bit < 32; ++bit) {
    h.window ^= std::uint32_t{1} << bit;
    expectChanged("window", bit);
    h.window ^= std::uint32_t{1} << bit;
  }
  for (bool TcpHeader::*flag :
       {&TcpHeader::syn, &TcpHeader::fin, &TcpHeader::is_ack}) {
    h.*flag = !(h.*flag);
    expectChanged("flag", 0);
    h.*flag = !(h.*flag);
  }
  EXPECT_EQ(tcpWireChecksum(h), stamped);
}

TEST(WireChecksumTest, TrailingZeroBytesChangeTheChecksum) {
  std::mt19937_64 rng(20004);
  for (std::size_t n = 0; n <= 64; ++n) {
    auto bytes = randomBytes(rng, n);
    std::set<std::uint32_t> seen;
    for (std::size_t zeros = 0; zeros <= 40; ++zeros) {
      EXPECT_TRUE(seen.insert(tcpWireChecksum(segment(bytes, 1))).second)
          << "length " << n << " plus " << zeros << " zero bytes";
      bytes.push_back(0);
    }
  }
}

}  // namespace
}  // namespace mgq::net
