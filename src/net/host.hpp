// Host: an end system with one network attachment, a transport demux
// (port-based), an optional egress marking policy, and an optional CPU
// scheduler hook (used by the DSRT experiments — sending costs cycles).
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "net/node.hpp"
#include "net/packet_ring.hpp"

namespace mgq::cpu {
class CpuScheduler;
}

namespace mgq::net {

/// Implemented by transports (TCP connections, UDP sockets) to receive
/// packets addressed to their bound port.
class PacketReceiver {
 public:
  virtual ~PacketReceiver() = default;
  virtual void onPacket(Packet p) = 0;
};

struct HostStats {
  std::uint64_t sent_packets = 0;
  std::uint64_t received_packets = 0;
  std::uint64_t no_listener_drops = 0;
};

class Host : public Node {
 public:
  Host(sim::Simulator& sim, NodeId id, std::string name);

  /// The single network attachment (created at construction).
  Interface& nic() { return *interfaces_.front(); }

  /// Sends a packet out the NIC. Applies the optional egress policy
  /// (host-level marking) first; stamps a unique packet id.
  void sendPacket(Packet p);

  /// Binds a transport endpoint; packets for (proto, port) are delivered
  /// to it. Returns false if the port is taken.
  bool bind(Protocol proto, PortId port, PacketReceiver* receiver);
  void unbind(Protocol proto, PortId port);

  /// Allocates an ephemeral port (49152+) free for `proto`.
  PortId allocateEphemeralPort(Protocol proto);

  void deliver(Packet&& p, Interface& in) override;

  DsPolicy& egressPolicy() { return egress_policy_; }
  const HostStats& stats() const { return stats_; }

  /// Optional CPU attached to this host (null when CPU is not modelled).
  cpu::CpuScheduler* cpuScheduler() { return cpu_; }
  void attachCpu(cpu::CpuScheduler* cpu) { cpu_ = cpu; }

 private:
  static std::uint64_t portKey(Protocol proto, PortId port) {
    return (static_cast<std::uint64_t>(proto) << 16) | port;
  }

  void onLoopbackDelivery();

  std::unordered_map<std::uint64_t, PacketReceiver*> bindings_;
  // Loopback packets awaiting their fixed-latency delivery event; the
  // event captures only `this` (FIFO — the delay is constant).
  PacketRing loopback_;
  DsPolicy egress_policy_;
  HostStats stats_;
  PortId next_ephemeral_ = 49152;
  std::uint64_t next_packet_id_ = 1;
  cpu::CpuScheduler* cpu_ = nullptr;
};

}  // namespace mgq::net
