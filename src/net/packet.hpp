// Packet model. A packet carries a flow key (simulated 5-tuple), a DSCP
// code point, its wire size, and a protocol-specific header. Payload bytes
// are carried as pooled buffer slices (net/buffer.hpp), so forwarding a
// packet across layers shares the bytes instead of deep-copying them,
// while transports can still verify end-to-end stream integrity under
// loss.
#pragma once

#include <cstdint>
#include <functional>
#include <variant>

#include "net/buffer.hpp"

namespace mgq::net {

using NodeId = std::uint32_t;
using PortId = std::uint16_t;

inline constexpr NodeId kInvalidNode = 0xffffffff;

/// Differentiated-services code points used in this library. kExpedited is
/// the EF PHB (premium service); kLowLatency is a second elevated class the
/// paper proposes for small-message MPI traffic; kBestEffort is default.
enum class Dscp : std::uint8_t {
  kBestEffort = 0,
  kLowLatency = 1,
  kExpedited = 2,
};

const char* dscpName(Dscp d);

enum class Protocol : std::uint8_t { kTcp = 0, kUdp = 1 };

/// Simulated 5-tuple identifying a transport flow.
struct FlowKey {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  PortId src_port = 0;
  PortId dst_port = 0;
  Protocol proto = Protocol::kTcp;

  bool operator==(const FlowKey&) const = default;

  /// The same flow viewed from the other endpoint.
  FlowKey reversed() const {
    return FlowKey{dst, src, dst_port, src_port, proto};
  }
};

struct FlowKeyHash {
  /// splitmix64 finalizer: every input bit avalanches into every output
  /// bit, so flows differing only in a few low port bits spread evenly
  /// (the old multiply-xor mixer clustered them into adjacent buckets).
  static std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  std::size_t operator()(const FlowKey& k) const {
    std::uint64_t h = mix((static_cast<std::uint64_t>(k.src) << 32) | k.dst);
    h = mix(h ^ (static_cast<std::uint64_t>(k.src_port) << 17) ^
            (static_cast<std::uint64_t>(k.dst_port) << 1) ^
            static_cast<std::uint64_t>(k.proto));
    return static_cast<std::size_t>(h);
  }
};

/// TCP segment metadata. `seq` is the stream offset of the first payload
/// byte; `payload` is a shared view of the actual bytes (empty — and
/// allocation-free — for pure ACKs).
struct TcpHeader {
  std::uint64_t seq = 0;
  std::uint64_t ack = 0;
  std::uint32_t window = 0;   // advertised receive window, bytes
  std::uint32_t checksum = 0; // wire checksum over header fields + payload
  bool syn = false;
  bool fin = false;
  bool is_ack = false;
  BufSlice payload;
};

/// Wire checksum over a TCP segment's header fields (seq, ack, window,
/// flags) and payload — everything a fault injector may flip. The
/// `checksum` field itself is excluded. Real payload bytes (MPI payloads,
/// application sends) are hashed word-at-a-time with multiply-xor. A
/// pattern-tagged payload (bulk transfers, see net/buffer.hpp) is defined
/// by its tag, so the hash folds (tag marker, first byte's phase, length)
/// in O(1) instead of reading bytes. A splitmix finalizer makes any single
/// bit flip avalanche into the result. A corrupted copy of a tagged
/// payload holds real bytes, so its hash is the byte hash and it fails the
/// stamped fold. Stamped by the sender at segment emission, verified at
/// receive (see tcp/tcp_socket.cpp).
std::uint32_t tcpWireChecksum(const TcpHeader& h);

/// UDP datagram metadata. Contention traffic is size-only (`payload`
/// empty); applications that carry real bytes attach a slice, shared
/// across fragments of the same datagram.
struct UdpHeader {
  std::uint64_t datagram_id = 0;
  BufSlice payload;
};

inline constexpr std::int32_t kIpHeaderBytes = 20;
inline constexpr std::int32_t kTcpHeaderBytes = 20;
inline constexpr std::int32_t kUdpHeaderBytes = 8;

struct Packet {
  FlowKey flow;
  Dscp dscp = Dscp::kBestEffort;
  std::int32_t size_bytes = 0;  // on-the-wire size including headers
  std::uint64_t id = 0;         // unique per simulation, for tracing
  std::variant<std::monostate, TcpHeader, UdpHeader> header;

  const TcpHeader* tcp() const { return std::get_if<TcpHeader>(&header); }
  TcpHeader* tcp() { return std::get_if<TcpHeader>(&header); }
  const UdpHeader* udp() const { return std::get_if<UdpHeader>(&header); }
};

/// Why a packet was dropped — used by counters and tests.
enum class DropReason {
  kQueueOverflow,
  kPoliced,        // out-of-profile premium traffic at an edge policer
  kNoRoute,
  kNoListener,
};

const char* dropReasonName(DropReason r);

}  // namespace mgq::net
