// Move-only type-erased callable, for closures that capture unique_ptrs.
#pragma once

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace lion {

template <typename Signature, size_t InlineBytes = 48,
          size_t InlineAlign = alignof(std::max_align_t)>
class MoveFn;

/// The one callable type of the simulated path: events, worker tasks and
/// every completion callback. Unlike std::function it never requires the
/// target to be copyable, so callbacks own their move-only state (TxnPtr,
/// batch items, unique_ptr-owned chains) outright instead of smuggling it
/// through a shared_ptr shim.
///
/// Targets up to kInlineBytes (with compatible alignment and a noexcept
/// move constructor) live in an inline small buffer: constructing,
/// invoking, and destroying such a MoveFn never touches the allocator.
/// This is the simulator's per-event hot path — a typical scheduler
/// closure (`this` + TxnPtr + a 24-byte TxnDoneFn = 40 bytes) stays
/// inline, so scheduling an event is allocation-free. Fat closures fall
/// back to one heap allocation, exactly like the old unique_ptr design.
/// Dispatch is a three-entry static vtable (invoke / relocate / destroy)
/// instead of a virtual base, which keeps the empty state a null pointer
/// and relocation a single indirect call.
///
/// `InlineBytes` sizes the small buffer and `InlineAlign` aligns it. The
/// defaults (48 bytes, max_align_t) fit the scheduler's closures; a
/// MoveFn<…, 48> is 64 bytes, so it never fits inline in another default
/// MoveFn. A callback that rides inside other closures can pick a smaller,
/// pointer-aligned buffer: TxnDoneFn uses 16 bytes aligned to 8 (24 bytes
/// in all), enough for the closed-loop driver's `[this]`, so `this` plus a
/// batch item (TxnPtr + TxnDoneFn) and a timestamp still fits one default
/// buffer.
template <typename R, typename... Args, size_t InlineBytes,
          size_t InlineAlign>
class MoveFn<R(Args...), InlineBytes, InlineAlign> {
 public:
  /// Small-buffer capacity. Change the default deliberately — every pending
  /// event's closure carries this buffer.
  static constexpr size_t kInlineBytes = InlineBytes;

  /// True iff a target of type F lives in the small buffer. The noexcept-move
  /// requirement keeps MoveFn's own move operations noexcept (containers
  /// relocate parked closures when they grow, as the simulator's slot pool
  /// does). Hot paths static_assert this on their closures.
  template <typename F>
  static constexpr bool kFitsInline =
      sizeof(F) <= kInlineBytes && alignof(F) <= InlineAlign &&
      std::is_nothrow_move_constructible_v<F>;

  MoveFn() = default;
  MoveFn(std::nullptr_t) {}  // NOLINT: implicit, mirrors std::function

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, MoveFn> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  MoveFn(F&& fn) {  // NOLINT: implicit, mirrors std::function
    using Target = std::decay_t<F>;
    if constexpr (kFitsInline<Target>) {
      ::new (static_cast<void*>(storage_)) Target(std::forward<F>(fn));
      vtable_ = &InlineOps<Target>::kVtable;
    } else {
      ::new (static_cast<void*>(storage_))
          Target*(new Target(std::forward<F>(fn)));
      vtable_ = &HeapOps<Target>::kVtable;
    }
  }

  MoveFn(MoveFn&& other) noexcept { MoveFrom(other); }

  MoveFn& operator=(MoveFn&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }

  MoveFn(const MoveFn&) = delete;
  MoveFn& operator=(const MoveFn&) = delete;

  ~MoveFn() { Reset(); }

  R operator()(Args... args) {
    if (vtable_ == nullptr) {
      // Mirror std::function's bad_function_call diagnosability without
      // exceptions: fail loudly at the call, not as a remote segfault.
      std::fprintf(stderr, "fatal: invoking an empty MoveFn\n");
      std::abort();
    }
    return vtable_->invoke(storage_, std::forward<Args>(args)...);
  }

  explicit operator bool() const { return vtable_ != nullptr; }

  /// True iff the current target lives in the small buffer (test hook for
  /// the allocation-free guarantee). An empty MoveFn reports false.
  bool uses_inline_storage() const {
    return vtable_ != nullptr && vtable_->inline_storage;
  }

 private:
  struct VTable {
    R (*invoke)(void* target, Args&&... args);
    /// Move-constructs the target into `dst` and destroys it in `src`.
    void (*relocate)(void* src, void* dst) noexcept;
    void (*destroy)(void* target) noexcept;
    bool inline_storage;
  };

  template <typename F>
  struct InlineOps {
    static R Invoke(void* target, Args&&... args) {
      return (*static_cast<F*>(target))(std::forward<Args>(args)...);
    }
    static void Relocate(void* src, void* dst) noexcept {
      F* from = static_cast<F*>(src);
      ::new (dst) F(std::move(*from));
      from->~F();
    }
    static void Destroy(void* target) noexcept {
      static_cast<F*>(target)->~F();
    }
    static constexpr VTable kVtable{&Invoke, &Relocate, &Destroy,
                                    /*inline_storage=*/true};
  };

  template <typename F>
  struct HeapOps {
    static F* Ptr(void* slot) { return *static_cast<F**>(slot); }
    static R Invoke(void* slot, Args&&... args) {
      return (*Ptr(slot))(std::forward<Args>(args)...);
    }
    static void Relocate(void* src, void* dst) noexcept {
      ::new (dst) F*(Ptr(src));  // ownership transfers with the pointer
    }
    static void Destroy(void* slot) noexcept { delete Ptr(slot); }
    static constexpr VTable kVtable{&Invoke, &Relocate, &Destroy,
                                    /*inline_storage=*/false};
  };

  void MoveFrom(MoveFn& other) noexcept {
    if (other.vtable_ != nullptr) {
      other.vtable_->relocate(other.storage_, storage_);
      vtable_ = other.vtable_;
      other.vtable_ = nullptr;
    }
  }

  void Reset() noexcept {
    if (vtable_ != nullptr) {
      vtable_->destroy(storage_);
      vtable_ = nullptr;
    }
  }

  alignas(InlineAlign) unsigned char storage_[kInlineBytes];
  const VTable* vtable_ = nullptr;
};

}  // namespace lion
