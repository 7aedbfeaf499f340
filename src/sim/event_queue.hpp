// Pending-event set for the discrete-event kernel.
//
// An indexed 4-ary min-heap ordered by (time, insertion sequence); the
// sequence tie-break makes same-timestamp events fire in FIFO order, which
// is what keeps coroutine wakeups deterministic. (time, seq) is a strict
// total order, so the pop sequence is a function of the entry set alone,
// never of the heap's internal layout.
//
// Heap entries are 16-byte PODs {at, seq << 24 | slot}; the callback lives
// in a stable slot table, so sifts never move a callable. Each slot records
// its entry's heap position, which makes cancel() and reschedule() in-place
// O(log n) operations: the heap holds exactly the live events
// (heapEntries() == size()), and cancel() destroys the callback — and
// everything it captured — immediately.
//
// EventIds encode (generation << 32 | slot). Generations start at 1 and
// bump on every release and reschedule, so stale ids — including id 0, the
// callers' "no event" sentinel — never match a reused slot.
#pragma once

#include <coroutine>
#include <cstdint>
#include <vector>

#include "sim/event_fn.hpp"
#include "sim/time.hpp"

namespace mgq::sim {

using EventId = std::uint64_t;

class EventQueue {
 public:
  /// Enqueues `fn` to run at `at`. Returns an id usable with cancel().
  EventId push(TimePoint at, EventFn fn);

  /// Wakeup fast path: enqueues a coroutine resume without constructing a
  /// lambda. The entry is tagged so cancelResumeEvents() can find it.
  EventId pushResume(TimePoint at, std::coroutine_handle<> h);

  /// Removes a still-queued event and destroys its callback (and captures)
  /// immediately. Returns false if the event already fired or was
  /// cancelled.
  bool cancel(EventId id);

  /// Atomically retargets a still-pending event to fire at `at` instead,
  /// reusing its callback (no destroy/rebuild) and giving it a fresh FIFO
  /// sequence — observably identical to cancel()+push() of the same
  /// callable. Returns the new id, or 0 if `id` already fired/cancelled
  /// (in which case nothing is scheduled).
  EventId reschedule(EventId id, TimePoint at);

  /// Cancels every pending resume-tagged event (delay()/Condition/spawn
  /// wakeups). Called by Simulator::destroyProcesses() so no timer can
  /// fire into a destroyed coroutine frame. Returns the number cancelled.
  std::size_t cancelResumeEvents();

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Time of the earliest event. Requires !empty().
  TimePoint nextTime();

  /// Removes and returns the earliest event's action. Requires !empty().
  EventFn pop(TimePoint* at = nullptr);

  void clear();

  /// Introspection for tests: always equals size().
  std::size_t heapEntries() const { return heap_.size(); }

 private:
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (std::uint64_t{1} << kSlotBits) - 1;
  static constexpr std::uint32_t kIdle = UINT32_MAX;  // Slot::pos when unqueued

  struct Entry {
    TimePoint at;
    std::uint64_t order;  // seq << kSlotBits | slot; seq is the FIFO tie-break
  };

  struct Slot {
    EventFn fn;
    std::uint32_t gen = 1;
    std::uint32_t pos = kIdle;  // index of this slot's entry in heap_
    bool resume = false;        // armed via pushResume
  };

  // Min-heap predicate: true when a fires *after* b. Comparing `order`
  // compares seq, which is unique, so the order is strict and total.
  static bool later(const Entry& a, const Entry& b) {
    if (a.at != b.at) return a.at > b.at;
    return a.order > b.order;
  }

  static std::uint32_t slotOf(const Entry& e) {
    return static_cast<std::uint32_t>(e.order & kSlotMask);
  }

  static EventId makeId(std::uint32_t gen, std::uint32_t slot) {
    return (static_cast<EventId>(gen) << 32) | slot;
  }

  /// Decodes `id`; returns the slot when it names a queued event, or
  /// nullptr.
  Slot* decodeLive(EventId id);

  std::uint32_t acquireSlot();
  void releaseSlot(std::uint32_t slot);
  std::uint64_t nextOrder(std::uint32_t slot);
  EventId pushEntry(TimePoint at, std::uint32_t slot);
  void removeAt(std::size_t i);
  void place(std::size_t i, const Entry& e) {
    heap_[i] = e;
    slots_[slotOf(e)].pos = static_cast<std::uint32_t>(i);
  }
  void siftUp(std::size_t i, Entry item);
  void siftDown(std::size_t i, Entry item);

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 1;
};

}  // namespace mgq::sim
