// PacketRing: the FIFO that holds packets in the data plane's custody —
// a qdisc band, an interface's wire, a host's loopback.
//
// A power-of-two circular buffer of Packet. Pushing moves the packet into
// its slot once, and the packet stays there until it is popped or taken;
// neither end ever shifts the others. Capacity doubles when the ring is
// full and is kept afterwards, so a ring that has seen its working depth
// allocates nothing more (std::deque allocates a block every few
// packets). Destroying the ring destroys the live packets, front to back,
// so their payload refs go back to the pool.
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <new>
#include <optional>
#include <utility>

#include "net/packet.hpp"

namespace mgq::net {

class PacketRing {
 public:
  PacketRing() = default;
  PacketRing(const PacketRing&) = delete;
  PacketRing& operator=(const PacketRing&) = delete;
  ~PacketRing() { clear(); }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// The i-th packet from the front; i < size().
  Packet& operator[](std::size_t i) {
    assert(i < size_);
    return slots_[(head_ + i) & mask_].packet;
  }
  const Packet& operator[](std::size_t i) const {
    assert(i < size_);
    return slots_[(head_ + i) & mask_].packet;
  }
  Packet& front() { return (*this)[0]; }
  const Packet& front() const { return (*this)[0]; }
  Packet& back() { return (*this)[size_ - 1]; }
  const Packet& back() const { return (*this)[size_ - 1]; }

  /// May grow the ring, which invalidates references to its packets.
  void push_back(Packet&& p) {
    if (slots_ == nullptr || size_ == mask_ + 1) grow();
    ::new (&slots_[(head_ + size_) & mask_].packet) Packet(std::move(p));
    ++size_;
  }

  void pop_front() {
    std::destroy_at(&front());
    head_ = (head_ + 1) & mask_;
    --size_;
  }

  void pop_back() {
    std::destroy_at(&back());
    --size_;
  }

  /// Moves the front packet out and pops it; the ring must not be empty.
  /// The optional is built here, in place, so a caller returning it needs
  /// no further move.
  std::optional<Packet> takeFront() {
    std::optional<Packet> out(std::in_place, std::move(front()));
    pop_front();
    return out;
  }

  void clear() {
    while (!empty()) pop_front();
  }

 private:
  // Raw slot storage: a union member is not constructed with the array,
  // so only live slots hold a Packet.
  union Slot {
    Slot() {}
    ~Slot() {}
    Packet packet;
  };

  static constexpr std::size_t kInitialCapacity = 4;

  void grow() {
    const std::size_t capacity =
        slots_ == nullptr ? kInitialCapacity : 2 * (mask_ + 1);
    auto fresh = std::make_unique<Slot[]>(capacity);
    for (std::size_t i = 0; i < size_; ++i) {
      Packet& p = (*this)[i];
      ::new (&fresh[i].packet) Packet(std::move(p));
      std::destroy_at(&p);
    }
    slots_ = std::move(fresh);
    mask_ = capacity - 1;
    head_ = 0;
  }

  std::unique_ptr<Slot[]> slots_;
  std::size_t mask_ = 0;  // capacity - 1 once slots_ is allocated
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace mgq::net
