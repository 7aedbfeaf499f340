#include "net/host.hpp"

#include <cassert>

namespace mgq::net {

Host::Host(sim::Simulator& sim, NodeId id, std::string name)
    : Node(sim, id, std::move(name)) {
  addInterface();
}

void Host::sendPacket(Packet p) {
  p.id = (static_cast<std::uint64_t>(id_) << 40) | next_packet_id_++;
  if (egress_policy_.hasRules()) {
    auto processed = egress_policy_.process(std::move(p));
    if (!processed) return;  // policed at the host edge
    p = std::move(*processed);
  } else {
    egress_policy_.countBypass();
  }
  ++stats_.sent_packets;
  if (p.flow.dst == id_) {
    // Loopback: deliver locally after a small fixed latency (scheduled, so
    // the caller never re-enters itself synchronously).
    loopback_.push_back(std::move(p));
    sim_.schedule(sim::Duration::micros(5), [this] { onLoopbackDelivery(); });
    return;
  }
  nic().send(std::move(p));
}

// The packet leaves the ring before delivery: a receiver that sends to
// itself again pushes onto the ring, which may grow.
void Host::onLoopbackDelivery() {
  Packet pkt = std::move(loopback_.front());
  loopback_.pop_front();
  deliver(std::move(pkt), nic());
}

bool Host::bind(Protocol proto, PortId port, PacketReceiver* receiver) {
  assert(receiver != nullptr);
  return bindings_.emplace(portKey(proto, port), receiver).second;
}

void Host::unbind(Protocol proto, PortId port) {
  bindings_.erase(portKey(proto, port));
}

PortId Host::allocateEphemeralPort(Protocol proto) {
  // Scan from the cursor; wraps within the ephemeral range.
  for (int attempts = 0; attempts < 16384; ++attempts) {
    const PortId candidate = next_ephemeral_;
    next_ephemeral_ =
        next_ephemeral_ >= 65535 ? PortId{49152} : PortId(next_ephemeral_ + 1);
    if (bindings_.find(portKey(proto, candidate)) == bindings_.end()) {
      return candidate;
    }
  }
  assert(false && "ephemeral port space exhausted");
  return 0;
}

void Host::deliver(Packet&& p, Interface& in) {
  (void)in;
  ++stats_.received_packets;
  const auto it = bindings_.find(portKey(p.flow.proto, p.flow.dst_port));
  if (it == bindings_.end()) {
    ++stats_.no_listener_drops;
    return;
  }
  it->second->onPacket(std::move(p));
}

}  // namespace mgq::net
