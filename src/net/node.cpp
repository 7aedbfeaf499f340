#include "net/node.hpp"

#include <cassert>
#include <utility>

#include "net/faults.hpp"

namespace mgq::net {

namespace {

bool carriesPayload(const Packet& p) {
  const auto* t = p.tcp();
  return t != nullptr && !t->payload.empty();
}

}  // namespace

Interface::Interface(sim::Simulator& sim, Node& owner, std::string name,
                     const QdiscConfig& qdisc)
    : sim_(sim),
      owner_(owner),
      name_(std::move(name)),
      pool_(&BufferPool::local()),
      qdisc_(qdisc.ef_capacity_bytes, qdisc.ll_capacity_bytes,
             qdisc.be_capacity_bytes) {}

void Interface::connect(Interface& peer, double rate_bps,
                        sim::Duration delay) {
  assert(peer_ == nullptr && "interface already connected");
  peer_ = &peer;
  rate_bps_ = rate_bps;
  delay_ = delay;
}

void Interface::send(Packet p) {
  assert(connected() && "sending on an unconnected interface");
  // Pool-pressure shedding: when the thread's payload pool sits at its
  // live-bytes ceiling, payload-bearing packets are dropped at admission
  // instead of queued — the drop releases their buffer refs, which is
  // what actually relieves the pressure, and transports recover through
  // ordinary retransmission. Header-only packets (ACKs, SYN/FIN, probes)
  // always pass, so the feedback that drains the pool keeps flowing.
  // Inactive (one predictable branch) when no ceiling is configured.
  if (pool_->underPressure() && carriesPayload(p)) {
    ++stats_.drops_pool_pressure;
    return;
  }
  // Idle transmitter, nothing queued: the packet would be dequeued again
  // immediately, so skip the qdisc round-trip. passThrough applies the
  // same drop rule and counts the packet as enqueue() would.
  if (!transmitting_ && up_ && qdisc_.empty()) {
    if (!qdisc_.passThrough(p)) {
      ++stats_.drops_overflow;
      return;
    }
    transmitting_ = true;
    startTransmit(std::move(p));
    return;
  }
  // A down interface still queues (the device buffer persists across the
  // outage); transmission resumes on setUp(true).
  if (!qdisc_.enqueue(std::move(p))) {
    ++stats_.drops_overflow;
    return;
  }
  if (!transmitting_ && up_) {
    transmitting_ = true;
    transmitNext();
  }
}

void Interface::setUp(bool up) {
  if (up_ == up) return;
  up_ = up;
  for (const auto& observer : link_observers_) observer(*this, up_);
  if (up_ && !transmitting_) {
    transmitting_ = true;
    transmitNext();
  }
}

void Interface::transmitNext() {
  if (!up_) {
    transmitting_ = false;
    return;
  }
  auto next = qdisc_.dequeue();
  if (!next) {
    transmitting_ = false;
    return;
  }
  startTransmit(std::move(*next));
}

void Interface::startTransmit(Packet&& p) {
  const auto tx_time = sim::transmissionTime(p.size_bytes, rate_bps_);
  ++stats_.tx_packets;
  wire_.push_back(std::move(p));
  sim_.schedule(tx_time, [this] { onSerialized(); });
}

// Serialization complete: the packet at the back of `wire_` propagates to
// the peer and the transmitter moves on to the next queued packet. The
// propagation event is scheduled before the next transmission starts,
// preserving the exact event order of the pre-pool data plane. An
// interface without wire faults takes only the first branch.
void Interface::onSerialized() {
  if (faults_ == nullptr) {
    sim_.schedule(delay_, [this] { onPropagated(); });
  } else {
    applyWireFaults(*faults_);
  }
  transmitNext();
}

// The wire faults' fixed order: loss, partition, corrupt, duplicate,
// reorder. A lost or blackholed packet burnt its bandwidth but never
// arrives. With no episode active and no partition this schedules exactly
// what the fault-free branch does.
void Interface::applyWireFaults(WireFaults& faults) {
  using Kind = WireFaults::Kind;
  if (faults.hits(Kind::kLoss)) {
    ++stats_.drops_fault;
    wire_.pop_back();
    return;
  }
  if (faults.partitioned()) {
    ++stats_.drops_partition;
    wire_.pop_back();
    return;
  }
  Packet& pkt = wire_.back();
  if (faults.hits(Kind::kCorrupt)) {
    if (faults.corrupt(pkt)) {
      ++stats_.corrupted;
    } else {
      ++stats_.corrupt_skipped;
    }
  }
  const bool duplicate = faults.hits(Kind::kDuplicate);
  if (duplicate) ++stats_.duplicated;
  const auto extra = faults.hits(Kind::kReorder) ? faults.reorderHold()
                                                  : sim::Duration::zero();
  if (extra > sim::Duration::zero()) {
    ++stats_.reordered;
    const auto id = delayed_seq_++;
    if (duplicate) {
      // The clone (a copy sharing the payload slice — refcount bump, no
      // byte copy) keeps the wire slot.
      delayed_wire_.emplace(id, pkt);
    } else {
      delayed_wire_.emplace(id, std::move(pkt));
      wire_.pop_back();
    }
    sim_.schedule(delay_ + extra, [this, id] { onDelayedPropagated(id); });
  } else {
    sim_.schedule(delay_, [this] { onPropagated(); });
    // The clone is built before push_back may grow the ring.
    if (duplicate) wire_.push_back(Packet(pkt));
  }
  if (duplicate) sim_.schedule(delay_, [this] { onPropagated(); });
}

// The packet leaves the interface's custody before the peer sees it, so
// whatever the peer does synchronously cannot disturb the ring.
void Interface::onPropagated() {
  Packet p = std::move(wire_.front());
  wire_.pop_front();
  peer_->receive(std::move(p));
}

void Interface::onDelayedPropagated(std::uint64_t id) {
  auto it = delayed_wire_.find(id);
  if (it == delayed_wire_.end()) return;
  Packet p = std::move(it->second);
  delayed_wire_.erase(it);
  peer_->receive(std::move(p));
}

void Interface::receive(Packet&& p) {
  // Packets in flight towards a down interface are lost at the wire.
  if (!up_) {
    ++stats_.drops_link_down;
    return;
  }
  ++stats_.rx_packets;
  if (!ingress_policy_.hasRules()) {
    ingress_policy_.countBypass();
    owner_.deliver(std::move(p), *this);
    return;
  }
  auto processed = ingress_policy_.process(std::move(p));
  if (!processed) {
    ++stats_.drops_policed;
    return;
  }
  owner_.deliver(std::move(*processed), *this);
}

Interface& Node::addInterface(const QdiscConfig& qdisc) {
  const auto index = interfaces_.size();
  interfaces_.push_back(std::make_unique<Interface>(
      sim_, *this, name_ + "/if" + std::to_string(index), qdisc));
  return *interfaces_.back();
}

}  // namespace mgq::net
