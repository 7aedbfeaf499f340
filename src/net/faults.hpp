// Network fault primitives (companions to sim/fault_injector.hpp).
//
// LinkFault takes both directions of a point-to-point link down and up:
// queued packets are held, in-flight packets are lost, and every
// registered link-state observer (e.g. a NetworkResourceManager watching
// its enforcement edge) is notified — that is how a link flap turns into
// a reservation failure upstream.
//
// WireFaults decides what happens to each packet as it finishes
// serializing on one egress interface: seeded loss, corruption,
// duplication and reordering episodes, plus a directional partition.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "net/node.hpp"
#include "sim/fault_injector.hpp"
#include "sim/random.hpp"

namespace mgq::net {

/// Both directions of one link, failed and restored as a unit.
class LinkFault {
 public:
  /// `a` must be connected; the reverse direction is its peer.
  explicit LinkFault(Interface& a);

  void fail();
  void restore();
  bool failed() const { return !a_->isUp() || !b_->isUp(); }

  Interface& forward() { return *a_; }
  Interface& reverse() { return *b_; }

 private:
  Interface* a_;
  Interface* b_;
};

/// Seeded wire faults on one interface's egress. Interface::onSerialized
/// consults them in a fixed order: loss, then partition, then corrupt,
/// then duplicate, then reorder. Each Bernoulli category draws from its
/// own Rng stream, `seed + k·0x9e3779b97f4a7c15` for k = loss, corrupt,
/// duplicate, reorder, and draws only while its episode is active — so
/// enabling one category never perturbs another's draws, and an
/// interface with no active episode schedules exactly the events of one
/// without faults. Every count lands in the interface's InterfaceStats.
///
///  - loss:      the packet is eaten after serializing (drops_fault).
///  - partition: a directional blackhole. Egress traffic burns its
///               serialization bandwidth but never arrives, queued packets
///               keep draining, and the reverse direction keeps flowing
///               (drops_partition). Partition the peer too for a full cut.
///  - corrupt:   one seeded bit flips, on TCP segments only — they carry
///               the wire checksum that lets the receiver drop the damage
///               (UDP contention traffic has no integrity cover, so it is
///               skipped). A payload is copied into a fresh pooled buffer
///               before the flip, so every other slice sharing the
///               original (retransmission rings, duplicate clones) stays
///               untouched; a payload-less segment gets a header-field
///               flip. A selected packet that cannot be corrupted (not
///               TCP, or the pool refused the copy at its ceiling) counts
///               corrupt_skipped.
///  - duplicate: the packet propagates twice, the clone right behind the
///               original and sharing its payload buffers (duplicated).
///  - reorder:   the packet is held back a uniform extra delay in
///               (0, reorder_bound], letting later packets overtake it
///               (reordered). Delivery still lands under the kernel's
///               `(at, seq)` order, so a seed replays one interleaving.
///
/// One WireFaults per interface: it attaches itself on construction and
/// detaches on destruction.
class WireFaults {
 public:
  enum class Kind { kLoss, kCorrupt, kDuplicate, kReorder, kPartition };

  WireFaults(Interface& iface, std::uint64_t seed,
             sim::Duration reorder_bound = sim::Duration::millis(5));
  ~WireFaults();
  WireFaults(const WireFaults&) = delete;
  WireFaults& operator=(const WireFaults&) = delete;

  /// Begins (or re-parameterizes) an episode hitting each packet with
  /// probability `p`. `kind` is one of the four Bernoulli categories;
  /// kPartition aborts in every build type (use partition()/heal()).
  void start(Kind kind, double p);
  void stop(Kind kind);
  bool active(Kind kind) const;

  void partition() { partitioned_ = true; }
  void heal() { partitioned_ = false; }
  bool partitioned() const { return partitioned_; }

 private:
  friend class Interface;

  struct Episode {
    sim::Rng rng;
    double probability = 0.0;
    bool active = false;
  };

  /// The episode slot of a Bernoulli kind.
  static std::size_t slot(Kind kind);
  /// One Bernoulli draw on `kind`'s stream; false (no draw) when inactive.
  /// Inline: the serialization path asks once per category per packet.
  bool hits(Kind kind) {
    auto& e = episodes_[static_cast<std::size_t>(kind)];
    return e.active && e.rng.bernoulli(e.probability);
  }
  /// Flips one bit of a selected packet; false when it cannot.
  bool corrupt(Packet& p);
  /// Extra hold in (0, reorder_bound] for a packet reorder selected.
  sim::Duration reorderHold();

  Interface* iface_;
  std::array<Episode, 4> episodes_;
  sim::Duration reorder_bound_;
  bool partitioned_ = false;
};

/// Adapters exposing these primitives as fault-injector targets. The
/// referenced objects must outlive the injector's schedule. A link or a
/// partition maps to down/up; a Bernoulli category maps to the
/// loss_start/loss_stop pair.
sim::FaultTarget linkFaultTarget(LinkFault& link);
sim::FaultTarget wireFaultTarget(WireFaults& faults, WireFaults::Kind kind);

}  // namespace mgq::net
