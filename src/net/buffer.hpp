// Pooled, refcounted payload buffers and the cheap slice views that the
// data plane passes between layers.
//
// A Buffer is a single heap block: an intrusive header followed by its
// bytes. BufferRef is the owning handle (copy = refcount bump, non-atomic
// — a Simulator and everything it drives runs confined to one thread, and
// each thread has its own pool). BufSlice is a {buffer, offset, length}
// view: packets, ring-buffer chunks and retransmissions all share the same
// underlying bytes, so forwarding a payload across a hop costs a pointer
// copy and a refcount bump instead of a vector deep-copy.
//
// BufferPool::local() hands out buffers from per-size-class free lists.
// A buffer released on the thread that owns its pool is recycled; one
// released elsewhere (rare: cross-thread teardown) is freed to the heap.
// The pool keeps live/high-water counters per thread plus one global
// atomic live count, so multi-threaded chaos sweeps can assert that a
// whole batch leaked nothing.
//
// Ownership rule: bytes inside a slice's [offset, offset+length) window
// are immutable for the slice's lifetime. Producers may keep appending to
// the *tail* of a buffer they exclusively grow (the ring does this), but
// must never rewrite bytes a slice can already see.
//
// Pattern tag: a buffer may be tagged as holding the bulk-transfer pattern
// (byte i is (phase + i) & 0xff) instead of being written. Bulk streams
// then move descriptors, not bytes: the ring tags chunks instead of
// filling them, the wire checksum folds the tag in O(1), and a verifying
// drain checks one phase per chunk. A reader that asks for raw bytes
// (data()) still sees the pattern: the buffer writes it out on that first
// raw access. allocate() clears the tag.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <utility>

namespace mgq::net {

class BufferPool;

/// Intrusive header; the payload bytes follow the struct in the same
/// allocation. Never constructed directly — see BufferPool::allocate().
class Buffer {
 public:
  /// The raw bytes. A pattern-tagged buffer writes its pattern out on the
  /// first call, so raw readers always see the bytes the tag defines.
  std::uint8_t* data() {
    if (pattern_ == Pattern::kTagged) writeOutPattern();
    return reinterpret_cast<std::uint8_t*>(this + 1);
  }
  const std::uint8_t* data() const {
    return const_cast<Buffer*>(this)->data();
  }
  std::uint32_t capacity() const { return capacity_; }

  /// Defines every byte as the bulk pattern, byte i = (phase + i) & 0xff,
  /// without writing any. Only for a buffer no slice has seen yet.
  void tagPattern(std::uint8_t phase) {
    pattern_ = Pattern::kTagged;
    phase_ = phase;
  }
  bool isPattern() const { return pattern_ != Pattern::kNone; }
  /// Pattern value of byte 0; meaningful only when isPattern().
  std::uint8_t patternPhase() const { return phase_; }

 private:
  friend class BufferPool;
  friend class BufferRef;

  enum class Pattern : std::uint8_t {
    kNone,     // real bytes
    kTagged,   // pattern by tag, bytes not yet written
    kWritten,  // pattern by tag, bytes written out for a raw reader
  };

  void writeOutPattern();

  std::uint32_t refs_ = 0;
  std::uint32_t capacity_ = 0;
  std::int8_t size_class_ = -1;  // -1: exact-size, never recycled
  // The pattern tag sits in the header's padding: sizeof(Buffer) is the
  // same as without it.
  Pattern pattern_ = Pattern::kNone;
  std::uint8_t phase_ = 0;
  BufferPool* owner_ = nullptr;
  Buffer* next_free_ = nullptr;  // free-list link while pooled

  void release();
};

/// Writes `n` bytes of the bulk pattern, starting at value `phase`.
void writePattern(std::uint8_t* out, std::size_t n, std::uint8_t phase);

/// Owning handle to a pooled buffer. Copyable (refcount bump), movable.
class BufferRef {
 public:
  BufferRef() = default;
  explicit BufferRef(Buffer* b) : b_(b) {
    if (b_ != nullptr) ++b_->refs_;
  }
  BufferRef(const BufferRef& o) : b_(o.b_) {
    if (b_ != nullptr) ++b_->refs_;
  }
  BufferRef(BufferRef&& o) noexcept : b_(std::exchange(o.b_, nullptr)) {}
  BufferRef& operator=(const BufferRef& o) {
    if (this != &o) {
      reset();
      b_ = o.b_;
      if (b_ != nullptr) ++b_->refs_;
    }
    return *this;
  }
  BufferRef& operator=(BufferRef&& o) noexcept {
    if (this != &o) {
      reset();
      b_ = std::exchange(o.b_, nullptr);
    }
    return *this;
  }
  ~BufferRef() { reset(); }

  void reset() {
    if (b_ != nullptr) {
      b_->release();
      b_ = nullptr;
    }
  }

  Buffer* get() const { return b_; }
  Buffer* operator->() const { return b_; }
  explicit operator bool() const { return b_ != nullptr; }

 private:
  Buffer* b_ = nullptr;
};

/// Cheap view over a window of a pooled buffer. Copying a slice bumps the
/// buffer refcount; the bytes themselves are shared and immutable.
struct BufSlice {
  BufferRef buffer;
  std::uint32_t offset = 0;
  std::uint32_t length = 0;

  bool empty() const { return length == 0; }
  std::size_t size() const { return length; }
  /// True when the window holds bulk-pattern bytes by tag (see Buffer).
  bool isPattern() const { return buffer && buffer->isPattern(); }
  /// Pattern value of the window's first byte; requires isPattern().
  std::uint8_t patternPhase() const {
    return static_cast<std::uint8_t>(buffer->patternPhase() + offset);
  }
  const std::uint8_t* data() const { return buffer->data() + offset; }
  const std::uint8_t& operator[](std::size_t i) const { return data()[i]; }
  std::span<const std::uint8_t> span() const { return {data(), length}; }

  /// A narrower window into the same bytes (no copy).
  BufSlice subslice(std::uint32_t off, std::uint32_t len) const {
    return BufSlice{buffer, offset + off, len};
  }

  /// Pool-backed slice holding a copy of `bytes`.
  static BufSlice copyOf(std::span<const std::uint8_t> bytes);
  /// Pool-backed slice of `n` bytes all equal to `value`.
  static BufSlice fill(std::size_t n, std::uint8_t value);
};

struct BufferPoolStats {
  std::uint64_t allocations = 0;   // allocate() calls
  std::uint64_t fresh = 0;         // served by operator new, not a free list
  std::uint64_t recycled = 0;      // buffers returned to a free list
  std::size_t live = 0;            // currently referenced buffers
  std::size_t high_water = 0;      // max simultaneous live buffers
  std::int64_t live_bytes = 0;     // capacity of currently live buffers
  std::int64_t high_water_bytes = 0;
  std::uint64_t ceiling_rejections = 0;  // tryAllocate() refused by ceiling
};

/// Thread-local pool of size-classed buffers (256 B … 64 KB; larger
/// requests get exact-size heap buffers that are freed, not recycled).
class BufferPool {
 public:
  static constexpr std::size_t kClassSizes[] = {256, 1024, 4096, 16384,
                                                65536};
  static constexpr int kNumClasses = 5;
  /// Free buffers kept per class; beyond this, releases free to the heap.
  static constexpr std::size_t kMaxFreePerClass = 64;

  /// The calling thread's pool.
  static BufferPool& local();

  /// Buffers currently live (allocated, not yet fully released) across
  /// every thread's pool. Zero means no payload memory is held anywhere.
  static std::int64_t totalLive();

  /// Capacity bytes of those live buffers, across every thread's pool.
  static std::int64_t totalLiveBytes();

  BufferRef allocate(std::size_t capacity);

  /// Ceiling-respecting allocation: returns an empty ref (and counts a
  /// ceiling_rejection) when a live-bytes ceiling is set and the rounded
  /// class size would push this pool past it. Shed-able producers (qdisc
  /// admission, fault-injector copies, send-side staging) use this and
  /// degrade gracefully; correctness-critical paths (reassembly views,
  /// ring gathers of bytes already admitted) keep using allocate(), which
  /// never fails — so the ceiling throttles intake without wedging
  /// in-flight data.
  BufferRef tryAllocate(std::size_t capacity);

  /// Per-thread live-bytes ceiling for tryAllocate(); 0 disables it. The
  /// ceiling is advisory pressure, not a hard cap: allocate() ignores it.
  void setLiveBytesCeiling(std::int64_t bytes) { ceiling_bytes_ = bytes; }
  std::int64_t liveBytesCeiling() const { return ceiling_bytes_; }

  /// True when a ceiling is set and live bytes sit at or above it —
  /// producers that can shed load should. (Live-bytes accounting, like
  /// the per-pool live counter, is only exact on the owning thread:
  /// cross-thread releases skip it by design.)
  bool underPressure() const {
    return ceiling_bytes_ > 0 && stats_.live_bytes >= ceiling_bytes_;
  }

  const BufferPoolStats& stats() const { return stats_; }

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

 private:
  friend class Buffer;

  BufferPool();
  ~BufferPool();

  bool ownsCurrentThread() const;
  void recycleOrFree(Buffer* b);
  static void destroy(Buffer* b);
  static Buffer* create(std::size_t capacity, std::int8_t size_class,
                        BufferPool* owner);
  static std::int8_t classFor(std::size_t capacity);

  Buffer* free_lists_[kNumClasses] = {};
  std::size_t free_counts_[kNumClasses] = {};
  std::int64_t ceiling_bytes_ = 0;  // 0: no ceiling
  BufferPoolStats stats_;
};

inline BufSlice BufSlice::copyOf(std::span<const std::uint8_t> bytes) {
  BufSlice s;
  if (bytes.empty()) return s;
  s.buffer = BufferPool::local().allocate(bytes.size());
  s.length = static_cast<std::uint32_t>(bytes.size());
  std::memcpy(s.buffer->data(), bytes.data(), bytes.size());
  return s;
}

inline BufSlice BufSlice::fill(std::size_t n, std::uint8_t value) {
  BufSlice s;
  if (n == 0) return s;
  s.buffer = BufferPool::local().allocate(n);
  s.length = static_cast<std::uint32_t>(n);
  std::memset(s.buffer->data(), value, n);
  return s;
}

}  // namespace mgq::net
