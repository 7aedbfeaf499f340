// Egress queueing disciplines.
//
// DropTailQueue: FIFO bounded by bytes; overflowing packets are dropped.
// DsQdisc: the paper's router egress discipline — strict priority across
// the EF (expedited), LL (low-latency) and BE (best-effort) classes, each
// class itself a bounded FIFO. All EF packets are sent before any LL
// packet, and all LL before any BE (paper §5.1 "Priority Queuing ... all
// packets associated with reservations are sent before any other
// packets").
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>

#include "net/packet.hpp"
#include "net/packet_ring.hpp"

namespace mgq::net {

struct QueueStats {
  std::uint64_t enqueued = 0;
  /// Packet did not fit on top of the current backlog.
  std::uint64_t dropped_overflow = 0;
  /// Packet is larger than the queue capacity itself — it would be dropped
  /// even on an empty queue. Kept separate from overflow so exported drop
  /// stats distinguish congestion from misconfiguration (MTU vs capacity).
  std::uint64_t dropped_oversize = 0;
  std::int64_t bytes_dropped = 0;
};

class DropTailQueue {
 public:
  explicit DropTailQueue(std::int64_t capacity_bytes)
      : capacity_bytes_(capacity_bytes) {}

  /// Takes the packet, or returns false (counting the drop) and leaves it
  /// to the caller when it does not fit.
  bool enqueue(Packet&& p);
  std::optional<Packet> dequeue();

  /// Idle-transmitter bypass: on an empty queue the overflow check of
  /// enqueue() reduces to the oversize check, so this does that check
  /// and counts the packet as enqueued, without the ring round-trip.
  /// Only valid when empty().
  bool passThrough(const Packet& p);

  bool empty() const { return items_.empty(); }
  std::size_t packetCount() const { return items_.size(); }
  std::int64_t bytes() const { return bytes_; }
  std::int64_t capacityBytes() const { return capacity_bytes_; }
  const QueueStats& stats() const { return stats_; }

  /// Internal-consistency check for invariant monitors: the byte counter
  /// must be non-negative, within capacity, and equal to the sum of the
  /// queued packets' sizes. Returns an empty string when consistent.
  std::string invariantError() const;

 private:
  std::int64_t capacity_bytes_;
  std::int64_t bytes_ = 0;
  PacketRing items_;
  QueueStats stats_;
};

class DsQdisc {
 public:
  /// Capacities are per class, in bytes.
  DsQdisc(std::int64_t ef_capacity, std::int64_t ll_capacity,
          std::int64_t be_capacity);

  bool enqueue(Packet p);
  std::optional<Packet> dequeue();
  /// See DropTailQueue::passThrough; routed to the packet's class band.
  bool passThrough(const Packet& p);

  bool empty() const;
  const DropTailQueue& classQueue(Dscp d) const;

 private:
  DropTailQueue& classQueueMutable(Dscp d);
  std::array<DropTailQueue, 3> queues_;  // indexed by Dscp value
};

}  // namespace mgq::net
