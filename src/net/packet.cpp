#include "net/packet.hpp"

#include <cstring>

namespace mgq::net {

namespace {

/// splitmix64 finalizer — same mixer FlowKeyHash uses.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Sets a pattern-tag fold apart from any hash of real bytes.
constexpr std::uint64_t kPatternMarker = 0x7061747465726e00ull;

/// Start state and multiplier of the real-byte chains. It is odd, so
/// each multiply is invertible.
constexpr std::uint64_t kChainPrime = 0x100000001b3ull;

/// Chains 1-3's combined finalizers while they still hold their start
/// state: every payload shorter than one 32-byte block, bare ACKs, SYNs
/// and FINs included.
constexpr std::uint64_t kUnreadChains = mix64(kChainPrime + 1) ^
                                        mix64(kChainPrime + 2) ^
                                        mix64(kChainPrime + 3);

std::uint64_t loadWord(const std::uint8_t* p) {
  std::uint64_t w;
  std::memcpy(&w, p, 8);
  return w;
}

}  // namespace

std::uint32_t tcpWireChecksum(const TcpHeader& h) {
  std::uint64_t acc = mix64(h.seq) ^ mix64(~h.ack);
  acc ^= mix64((static_cast<std::uint64_t>(h.window) << 3) |
               (static_cast<std::uint64_t>(h.syn) << 2) |
               (static_cast<std::uint64_t>(h.fin) << 1) |
               static_cast<std::uint64_t>(h.is_ack));
  if (h.payload.isPattern()) {
    // The tag defines every byte: fold (marker, first byte's phase,
    // length) instead of reading them.
    acc ^= mix64(kPatternMarker ^
                 (static_cast<std::uint64_t>(h.payload.patternPhase()) << 32) ^
                 h.payload.size());
    return static_cast<std::uint32_t>(acc ^ (acc >> 32));
  }
  // Real bytes: four independent multiply-xor chains over 32-byte blocks,
  // word i of a block feeding chain i, so the multiply latency of one
  // chain overlaps the others. The words after the last whole block and
  // the length-tagged tail continue chain 0. Each step is a bijection of
  // the chain state, so a single flipped bit changes exactly one chain,
  // and the distinct offsets keep chains with equal states from looking
  // alike.
  const std::uint8_t* p = h.payload.empty() ? nullptr : h.payload.data();
  std::size_t n = h.payload.size();
  std::uint64_t c0 = kChainPrime;
  std::uint64_t others = kUnreadChains;
  if (n >= 32) {
    std::uint64_t c1 = kChainPrime;
    std::uint64_t c2 = kChainPrime;
    std::uint64_t c3 = kChainPrime;
    for (; n >= 32; p += 32, n -= 32) {
      c0 = (c0 ^ loadWord(p)) * kChainPrime;
      c1 = (c1 ^ loadWord(p + 8)) * kChainPrime;
      c2 = (c2 ^ loadWord(p + 16)) * kChainPrime;
      c3 = (c3 ^ loadWord(p + 24)) * kChainPrime;
    }
    others = mix64(c1 + 1) ^ mix64(c2 + 2) ^ mix64(c3 + 3);
  }
  for (; n >= 8; p += 8, n -= 8) {
    c0 = (c0 ^ loadWord(p)) * kChainPrime;
  }
  if (n > 0) {
    std::uint64_t w = 0;
    std::memcpy(&w, p, n);
    c0 = (c0 ^ w ^ (static_cast<std::uint64_t>(n) << 56)) * kChainPrime;
  }
  acc ^= mix64(c0 ^ h.payload.size()) ^ others;
  return static_cast<std::uint32_t>(acc ^ (acc >> 32));
}

const char* dscpName(Dscp d) {
  switch (d) {
    case Dscp::kBestEffort:
      return "BE";
    case Dscp::kLowLatency:
      return "LL";
    case Dscp::kExpedited:
      return "EF";
  }
  return "?";
}

const char* dropReasonName(DropReason r) {
  switch (r) {
    case DropReason::kQueueOverflow:
      return "queue-overflow";
    case DropReason::kPoliced:
      return "policed";
    case DropReason::kNoRoute:
      return "no-route";
    case DropReason::kNoListener:
      return "no-listener";
  }
  return "?";
}

}  // namespace mgq::net
