#include "net/buffer.hpp"

#include <atomic>
#include <cassert>
#include <new>

namespace mgq::net {

namespace {

std::atomic<std::int64_t> g_total_live{0};
std::atomic<std::int64_t> g_total_live_bytes{0};

// The thread's pool, null before first use and after the pool's own
// destruction (thread exit) — releases arriving that late free to the
// heap instead of touching a dead free list.
thread_local BufferPool* tls_pool = nullptr;

}  // namespace

static_assert(sizeof(Buffer) == 16 + 2 * sizeof(void*),
              "the pattern tag must fit the header's padding");

void writePattern(std::uint8_t* out, std::size_t n, std::uint8_t phase) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(phase + i);
  }
}

void Buffer::writeOutPattern() {
  writePattern(reinterpret_cast<std::uint8_t*>(this + 1), capacity_, phase_);
  pattern_ = Pattern::kWritten;
}

BufferPool& BufferPool::local() {
  static thread_local BufferPool pool;
  return pool;
}

std::int64_t BufferPool::totalLive() {
  return g_total_live.load(std::memory_order_relaxed);
}

std::int64_t BufferPool::totalLiveBytes() {
  return g_total_live_bytes.load(std::memory_order_relaxed);
}

BufferPool::BufferPool() { tls_pool = this; }

BufferPool::~BufferPool() {
  tls_pool = nullptr;
  for (auto*& head : free_lists_) {
    while (head != nullptr) {
      Buffer* next = head->next_free_;
      destroy(head);
      head = next;
    }
  }
}

bool BufferPool::ownsCurrentThread() const { return tls_pool == this; }

Buffer* BufferPool::create(std::size_t capacity, std::int8_t size_class,
                           BufferPool* owner) {
  void* raw = ::operator new(sizeof(Buffer) + capacity);
  auto* b = new (raw) Buffer();
  b->capacity_ = static_cast<std::uint32_t>(capacity);
  b->size_class_ = size_class;
  b->owner_ = owner;
  return b;
}

void BufferPool::destroy(Buffer* b) {
  b->~Buffer();
  ::operator delete(static_cast<void*>(b));
}

std::int8_t BufferPool::classFor(std::size_t capacity) {
  for (int c = 0; c < kNumClasses; ++c) {
    if (capacity <= kClassSizes[c]) return static_cast<std::int8_t>(c);
  }
  return -1;
}

BufferRef BufferPool::tryAllocate(std::size_t capacity) {
  if (ceiling_bytes_ > 0) {
    const auto cls = classFor(capacity);
    const auto rounded = static_cast<std::int64_t>(
        cls >= 0 ? kClassSizes[cls] : capacity);
    if (stats_.live_bytes + rounded > ceiling_bytes_) {
      ++stats_.ceiling_rejections;
      return BufferRef{};
    }
  }
  return allocate(capacity);
}

BufferRef BufferPool::allocate(std::size_t capacity) {
  assert(capacity > 0 && capacity <= 0x7fffffff);
  ++stats_.allocations;
  ++stats_.live;
  if (stats_.live > stats_.high_water) stats_.high_water = stats_.live;
  const auto cls = classFor(capacity);
  const auto rounded =
      static_cast<std::int64_t>(cls >= 0 ? kClassSizes[cls] : capacity);
  stats_.live_bytes += rounded;
  if (stats_.live_bytes > stats_.high_water_bytes) {
    stats_.high_water_bytes = stats_.live_bytes;
  }
  g_total_live.fetch_add(1, std::memory_order_relaxed);
  g_total_live_bytes.fetch_add(rounded, std::memory_order_relaxed);

  if (cls >= 0 && free_lists_[cls] != nullptr) {
    Buffer* b = free_lists_[cls];
    free_lists_[cls] = b->next_free_;
    --free_counts_[cls];
    b->next_free_ = nullptr;
    b->pattern_ = Buffer::Pattern::kNone;
    return BufferRef(b);
  }
  ++stats_.fresh;
  const auto size = cls >= 0 ? kClassSizes[cls] : capacity;
  return BufferRef(create(size, cls, this));
}

void BufferPool::recycleOrFree(Buffer* b) {
  --stats_.live;
  stats_.live_bytes -= static_cast<std::int64_t>(b->capacity_);
  const auto cls = b->size_class_;
  if (cls < 0 || free_counts_[cls] >= kMaxFreePerClass) {
    destroy(b);
    return;
  }
  ++stats_.recycled;
  b->next_free_ = free_lists_[cls];
  free_lists_[cls] = b;
  ++free_counts_[cls];
}

void Buffer::release() {
  assert(refs_ > 0);
  if (--refs_ != 0) return;
  g_total_live.fetch_sub(1, std::memory_order_relaxed);
  g_total_live_bytes.fetch_sub(static_cast<std::int64_t>(capacity_),
                               std::memory_order_relaxed);
  BufferPool* owner = owner_;
  if (owner != nullptr && owner->ownsCurrentThread()) {
    owner->recycleOrFree(this);
  } else {
    // Cross-thread (or post-pool-destruction) release: the free lists are
    // not safe to touch, so just give the block back to the heap. The
    // owner's `live` counter is intentionally left alone — per-pool stats
    // are only meaningful on the owning thread; the global counter above
    // is the cross-thread source of truth.
    BufferPool::destroy(this);
  }
}

}  // namespace mgq::net
