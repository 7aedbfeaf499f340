// Small-buffer-optimized, move-only callback for the event kernel.
//
// std::function heap-allocates for anything beyond a pointer or two and
// drags in copy machinery the kernel never uses. EventFn keeps callables
// up to kInlineBytes (sized to fit every hot-path capture: a coroutine
// handle, a `this` pointer plus an id, a couple of shared_ptrs) inline in
// the object, falling back to the heap only for large scripted-scenario
// closures. Move-only, so move-only captures (unique_ptr and friends)
// work too.
//
// Inline callables that are trivially copyable and trivially destructible
// — the hot `[this]` / `[this, id]` link and TCP lambdas — carry null
// relocate and destroy ops: moving one copies the raw storage and reset()
// has nothing to run. The heap fallback's storage is just an owning
// pointer, so it relocates the same way. Only inline callables with
// non-trivial captures pay an indirect call per move.
//
// EventFn::resume(h) is the dedicated wakeup representation: the
// delay()/Condition fast paths build it directly, so a coroutine resume
// costs one inline store — no lambda object, no type erasure beyond the
// shared ops table, no allocation. isResume() recognises it by that table,
// so the event queue needs no tag of its own to find wakeups.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace mgq::sim {

class EventFn {
 public:
  static constexpr std::size_t kInlineBytes = 48;

  EventFn() noexcept = default;

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, EventFn> &&
             std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor): callable adaptor
    emplace(std::forward<F>(f));
  }

  /// The coroutine-wakeup fast path: stores the handle inline and resumes
  /// it on invocation.
  static EventFn resume(std::coroutine_handle<> h) noexcept {
    EventFn fn;
    ::new (static_cast<void*>(fn.storage_)) std::coroutine_handle<>(h);
    fn.ops_ = &kResumeOps;
    return fn;
  }

  EventFn(EventFn&& o) noexcept { take(o); }

  EventFn& operator=(EventFn&& o) noexcept {
    if (this != &o) {
      reset();
      take(o);
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// True when this holds an EventFn::resume(h) wakeup.
  bool isResume() const noexcept { return ops_ == &kResumeOps; }

  void operator()() { ops_->invoke(storage_); }

  /// Destroys the held callable (and everything it captures) immediately.
  void reset() noexcept {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    /// Move-constructs dst from src, then destroys src. Null when a plain
    /// copy of the storage bytes does both.
    void (*relocate)(void* dst, void* src) noexcept;
    /// Null when destruction is a no-op.
    void (*destroy)(void* storage) noexcept;
  };

  template <typename F>
  static constexpr bool fitsInline() {
    return sizeof(F) <= kInlineBytes &&
           alignof(F) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<F>;
  }

  template <typename F>
  static constexpr bool isTrivial() {
    return std::is_trivially_copyable_v<F> &&
           std::is_trivially_destructible_v<F>;
  }

  template <typename F>
  struct InlineOps {
    static void invoke(void* storage) { (*std::launder(reinterpret_cast<F*>(storage)))(); }
    static void relocate(void* dst, void* src) noexcept {
      F* from = std::launder(reinterpret_cast<F*>(src));
      ::new (dst) F(std::move(*from));
      from->~F();
    }
    static void destroy(void* storage) noexcept {
      std::launder(reinterpret_cast<F*>(storage))->~F();
    }
    static constexpr Ops ops = isTrivial<F>()
                                   ? Ops{&invoke, nullptr, nullptr}
                                   : Ops{&invoke, &relocate, &destroy};
  };

  template <typename F>
  struct HeapOps {
    static F* ptr(void* storage) { return *reinterpret_cast<F**>(storage); }
    static void invoke(void* storage) { (*ptr(storage))(); }
    static void destroy(void* storage) noexcept { delete ptr(storage); }
    static constexpr Ops ops{&invoke, nullptr, &destroy};
  };

  static void resumeHandle(void* storage) {
    std::launder(reinterpret_cast<std::coroutine_handle<>*>(storage))->resume();
  }
  static constexpr Ops kResumeOps{&resumeHandle, nullptr, nullptr};

  /// Moves o's callable into this (empty) EventFn and leaves o empty.
  void take(EventFn& o) noexcept {
    ops_ = o.ops_;
    if (ops_ == nullptr) return;
    if (ops_->relocate != nullptr) {
      ops_->relocate(storage_, o.storage_);
    } else {
      std::memcpy(storage_, o.storage_, kInlineBytes);
    }
    o.ops_ = nullptr;
  }

  template <typename F>
  void emplace(F&& f) {
    using D = std::remove_cvref_t<F>;
    if constexpr (fitsInline<D>()) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &InlineOps<D>::ops;
    } else {
      *reinterpret_cast<D**>(storage_) = new D(std::forward<F>(f));
      ops_ = &HeapOps<D>::ops;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace mgq::sim
