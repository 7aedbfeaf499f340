#include "net/packet.hpp"

#include <cstring>

namespace mgq::net {

namespace {

/// splitmix64 finalizer — same mixer FlowKeyHash uses.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Sets a pattern-tag fold apart from any hash of real bytes.
constexpr std::uint64_t kPatternMarker = 0x7061747465726e00ull;

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
  const std::uint8_t* p = h.payload.empty() ? nullptr : h.payload.data();
  std::size_t n = h.payload.size();
  std::uint64_t sum = 0x100000001b3ull;
  while (n >= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    sum = (sum ^ w) * 0x100000001b3ull;
    p += 8;
    n -= 8;
  }
  if (n > 0) {
    std::uint64_t w = 0;
    std::memcpy(&w, p, n);
    sum = (sum ^ w ^ (static_cast<std::uint64_t>(n) << 56)) *
          0x100000001b3ull;
  }
  acc ^= mix64(sum ^ h.payload.size());
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
