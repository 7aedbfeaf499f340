// Nodes (hosts and routers) and their network interfaces.
//
// An Interface owns the egress side of a point-to-point attachment: a
// diffserv qdisc (strict priority EF > LL > BE) drained by a transmitter
// at the link rate, plus an ingress DS policy (classify/mark/police)
// applied to packets arriving *into* the node — that is where the paper's
// edge routers police premium flows.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/classifier.hpp"
#include "net/packet.hpp"
#include "net/packet_ring.hpp"
#include "net/queue.hpp"
#include "sim/simulator.hpp"

namespace mgq::net {

class Node;
class WireFaults;

struct InterfaceStats {
  std::uint64_t tx_packets = 0;
  std::uint64_t rx_packets = 0;
  std::uint64_t drops_overflow = 0;
  std::uint64_t drops_policed = 0;
  std::uint64_t drops_link_down = 0;  // arrived while the interface was down
  std::uint64_t drops_fault = 0;      // eaten by an injected loss episode
  std::uint64_t drops_partition = 0;  // blackholed by a directional partition
  std::uint64_t drops_pool_pressure = 0;  // shed at the pool's byte ceiling
  std::uint64_t corrupted = 0;        // mutated in flight by a wire fault
  std::uint64_t corrupt_skipped = 0;  // selected for corruption, left intact
  std::uint64_t duplicated = 0;       // cloned in flight by a wire fault
  std::uint64_t reordered = 0;        // delayed past later packets in flight
};

struct QdiscConfig {
  std::int64_t ef_capacity_bytes = 256 * 1024;
  std::int64_t ll_capacity_bytes = 64 * 1024;
  std::int64_t be_capacity_bytes = 64 * 1024;
};

class Interface {
 public:
  Interface(sim::Simulator& sim, Node& owner, std::string name,
            const QdiscConfig& qdisc);

  /// Wires this interface to `peer` with the given egress rate and one-way
  /// propagation delay. Each direction is configured on its own interface.
  void connect(Interface& peer, double rate_bps, sim::Duration delay);

  /// Enqueues a packet for transmission (egress path).
  void send(Packet p);

  /// Entry point for packets arriving from the wire (ingress path):
  /// applies the ingress DS policy, then hands the packet to the node.
  void receive(Packet&& p);

  Node& owner() { return owner_; }
  Interface* peer() { return peer_; }
  const std::string& name() const { return name_; }
  double rateBps() const { return rate_bps_; }
  sim::Duration propagationDelay() const { return delay_; }
  bool connected() const { return peer_ != nullptr; }

  DsPolicy& ingressPolicy() { return ingress_policy_; }
  const DsQdisc& qdisc() const { return qdisc_; }
  const InterfaceStats& stats() const { return stats_; }

  // --- fault model (driven by net/faults.hpp) ----------------------------
  // Wire faults (loss, partition, corrupt, duplicate, reorder) come from a
  // WireFaults attached to this interface.
  /// Administrative/fault link state. A down interface holds queued
  /// packets without transmitting them, and packets arriving over the
  /// wire are lost. Fires the registered link-state observers on every
  /// transition.
  void setUp(bool up);
  bool isUp() const { return up_; }

  /// Registers an observer fired on every up/down transition. Observers
  /// must outlive the interface (or never be fired after destruction);
  /// there is no removal — this models device monitors, which persist.
  void onLinkStateChange(std::function<void(Interface&, bool up)> observer) {
    link_observers_.push_back(std::move(observer));
  }

  /// Packets currently held back by a reorder episode.
  std::size_t delayedInFlight() const { return delayed_wire_.size(); }

 private:
  friend class WireFaults;  // attaches and detaches itself as faults_

  void transmitNext();
  void startTransmit(Packet&& p);
  void onSerialized();
  void applyWireFaults(WireFaults& faults);
  void onPropagated();
  void onDelayedPropagated(std::uint64_t id);

  sim::Simulator& sim_;
  Node& owner_;
  std::string name_;
  // The constructing thread's payload pool, cached so the egress hot path
  // checks pressure without a thread_local lookup per packet. Interfaces
  // live and die on their Simulator's thread, same as the pool.
  BufferPool* pool_;
  Interface* peer_ = nullptr;
  double rate_bps_ = 0.0;
  sim::Duration delay_ = sim::Duration::zero();
  DsQdisc qdisc_;
  DsPolicy ingress_policy_;
  // Packets the interface holds while their timer events are pending, so
  // those events capture only `this` and stay within the kernel's
  // small-buffer callbacks (no heap allocation per transmission). One
  // ring holds both stages of the hop, and a packet is moved into it once
  // and out of it once:
  //  - while transmitting_, the back entry is the serializing packet;
  //  - every entry before it is on the wire, in the order it entered, with
  //    exactly one pending onPropagated event. Propagation delay is
  //    constant per link, so those events fire front to back.
  // applyWireFaults decides the back entry's fate in place: lost or
  // blackholed packets are popped, reorder-held ones move to
  // delayed_wire_, and a duplicate clone is pushed behind the original.
  PacketRing wire_;
  // Packets held back by a reorder episode: keyed by a per-interface
  // sequence number because their completion events fire out of entry
  // order (std::map keeps iteration deterministic for teardown).
  std::map<std::uint64_t, Packet> delayed_wire_;
  std::uint64_t delayed_seq_ = 0;
  bool transmitting_ = false;
  bool up_ = true;
  // Null unless a WireFaults covers this egress: the fault-free path costs
  // one pointer test per serialized packet.
  WireFaults* faults_ = nullptr;
  std::vector<std::function<void(Interface&, bool)>> link_observers_;
  InterfaceStats stats_;
};

class Node {
 public:
  Node(sim::Simulator& sim, NodeId id, std::string name)
      : sim_(sim), id_(id), name_(std::move(name)) {}
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;
  virtual ~Node() = default;

  /// Called by an interface once an arriving packet passed ingress policy.
  /// The node takes the packet; what it leaves behind is discarded.
  virtual void deliver(Packet&& p, Interface& in) = 0;

  Interface& addInterface(const QdiscConfig& qdisc = {});

  sim::Simulator& simulator() { return sim_; }
  NodeId id() const { return id_; }
  const std::string& name() const { return name_; }
  std::vector<std::unique_ptr<Interface>>& interfaces() {
    return interfaces_;
  }

 protected:
  sim::Simulator& sim_;
  NodeId id_;
  std::string name_;
  std::vector<std::unique_ptr<Interface>> interfaces_;
};

}  // namespace mgq::net
