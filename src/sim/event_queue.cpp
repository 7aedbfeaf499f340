#include "sim/event_queue.hpp"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace mgq::sim {
namespace {

// Four children per node: a shallower tree than a binary heap, and the
// four 16-byte children of a node span a single cache line's worth.
constexpr std::size_t kArity = 4;

constexpr std::uint64_t kMaxSeq = (std::uint64_t{1} << 40) - 1;

// The encoding limits are enforced in every build type, NDEBUG included:
// overflowing either would silently corrupt pop order.
[[noreturn]] void limitExceeded(const char* what) {
  std::fprintf(stderr, "EventQueue: %s limit exceeded\n", what);
  std::abort();
}

}  // namespace

// push, pushResume and pop are the per-event path: the slot, sequence and
// sift-up helpers below are forced inline into them, so an event pays no
// internal call but the one siftDown.

[[gnu::always_inline]] inline std::uint32_t EventQueue::acquireSlot() {
  if (free_slots_.empty()) [[unlikely]] return growSlots();
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  return slot;
}

std::uint32_t EventQueue::growSlots() {
  if (slots_.size() > kSlotMask) limitExceeded("slot index");
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

[[gnu::always_inline]] inline void EventQueue::releaseSlot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn.reset();
  s.pos = kIdle;
  ++s.gen;  // invalidates every id issued for the old occupant
  free_slots_.push_back(slot);
}

[[gnu::always_inline]] inline std::uint64_t EventQueue::nextOrder(
    std::uint32_t slot) {
  if (next_seq_ > kMaxSeq) [[unlikely]] limitExceeded("sequence number");
  return (next_seq_++ << kSlotBits) | slot;
}

// Both sifts move a hole instead of swapping — one Entry store (and one
// position update) per level rather than three.

[[gnu::always_inline]] inline void EventQueue::siftUp(std::size_t i, Entry item) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!later(heap_[parent], item)) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, item);
}

void EventQueue::siftDown(std::size_t i, Entry item) {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = kArity * i + 1;
    if (first >= n) break;
    const std::size_t end = first + kArity < n ? first + kArity : n;
    std::size_t child = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (later(heap_[child], heap_[c])) child = c;
    }
    if (!later(item, heap_[child])) break;
    place(i, heap_[child]);
    i = child;
  }
  place(i, item);
}

[[gnu::always_inline]] inline EventId EventQueue::insert(TimePoint at,
                                                         std::uint32_t slot) {
  const Entry item{at, nextOrder(slot)};
  if (vacant_) {
    vacant_ = false;
    siftDown(0, item);
  } else {
    heap_.emplace_back();
    siftUp(heap_.size() - 1, item);
  }
  return makeId(slots_[slot].gen, slot);
}

// Fills a vacant root with the last leaf.
[[gnu::always_inline]] inline void EventQueue::settle() {
  if (!vacant_) return;
  vacant_ = false;
  const Entry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) siftDown(0, last);
}

EventQueue::Slot* EventQueue::decodeLive(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size()) return nullptr;
  Slot& s = slots_[slot];
  if (s.pos == kIdle || s.gen != gen) return nullptr;
  return &s;
}

EventId EventQueue::push(TimePoint at, EventFn fn) {
  const std::uint32_t slot = acquireSlot();
  slots_[slot].fn = std::move(fn);
  return insert(at, slot);
}

EventId EventQueue::pushResume(TimePoint at, std::coroutine_handle<> h) {
  const std::uint32_t slot = acquireSlot();
  slots_[slot].fn = EventFn::resume(h);
  return insert(at, slot);
}

bool EventQueue::cancel(EventId id) {
  Slot* s = decodeLive(id);
  if (s == nullptr) return false;
  settle();
  // Take the callback out first: its captures die when this function
  // returns, after the queue is consistent again, so a destructor that
  // re-enters the queue sees no half-removed entry.
  const EventFn doomed = std::move(s->fn);
  const std::size_t i = s->pos;
  releaseSlot(static_cast<std::uint32_t>(s - slots_.data()));
  removeAt(i);
  return true;
}

EventId EventQueue::reschedule(EventId id, TimePoint at) {
  Slot* s = decodeLive(id);
  if (s == nullptr) return 0;
  settle();
  const auto slot = static_cast<std::uint32_t>(s - slots_.data());
  // Keep the callback armed in place; the entry takes a fresh sequence
  // number, as if just pushed, and sifts from where it stands.
  ++s->gen;
  const std::size_t i = s->pos;
  const Entry moved{at, nextOrder(slot)};
  if (later(moved, heap_[i])) {
    siftDown(i, moved);
  } else {
    siftUp(i, moved);
  }
  return makeId(s->gen, slot);
}

std::size_t EventQueue::cancelResumeEvents() {
  settle();
  std::size_t cancelled = 0;
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    const Slot& s = slots_[slot];
    if (s.pos != kIdle && s.fn.isResume()) {
      const std::size_t i = s.pos;
      releaseSlot(slot);
      removeAt(i);
      ++cancelled;
    }
  }
  return cancelled;
}

TimePoint EventQueue::nextTime() {
  assert(!empty());
  settle();
  return heap_.front().at;
}

EventFn EventQueue::pop(TimePoint* at) {
  assert(!empty());
  settle();
  const Entry top = heap_.front();
  if (at != nullptr) *at = top.at;
  const std::uint32_t slot = slotOf(top);
  EventFn fn = std::move(slots_[slot].fn);
  releaseSlot(slot);
  vacant_ = true;
  return fn;
}

void EventQueue::clear() {
  // Release (not reset) every queued slot so generations keep advancing —
  // an id issued before clear() must never match an event pushed after.
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    if (slots_[slot].pos != kIdle) releaseSlot(slot);
  }
  heap_.clear();
  vacant_ = false;
}

void EventQueue::removeAt(std::size_t i) {
  const Entry last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;  // it was the last leaf
  if (i > 0 && later(heap_[(i - 1) / kArity], last)) {
    siftUp(i, last);
  } else {
    siftDown(i, last);
  }
}

}  // namespace mgq::sim
