#pragma once
// A move-only, type-erased callable with inline storage: the callback type
// of the simulator's per-event path (sim::EventFn, sim::CompletionFn).
//
// A callable of at most `Capacity` bytes, 8-byte alignment and a noexcept
// move constructor is constructed in place inside the object, so storing,
// moving and invoking it never touches the heap. Anything larger (or
// throwing on move) is boxed: the object then holds a pointer to a
// heap-allocated copy, which keeps the type usable for rare fat captures
// at the cost of one allocation per construction. Callables that are
// trivially copyable, and boxed ones, move as raw bytes; the rest move
// through their own move constructor.
//
// Semantics follow std::function where they overlap (nullptr state,
// explicit bool, const call operator that invokes the target as a
// non-const lvalue, an empty std::function or null function pointer
// constructs an empty object) except that copying is not supported.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace ndft::sim {

template <typename Signature, std::size_t Capacity>
class InlineFunction;

namespace detail {

// Callables that can be empty: wrapping one that is yields an empty object.
template <typename T>
inline constexpr bool kNullableCallable = std::is_pointer_v<T>;
template <typename S>
inline constexpr bool kNullableCallable<std::function<S>> = true;

}  // namespace detail

template <typename R, typename... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity> {
  static constexpr std::size_t kAlign = alignof(std::uint64_t);
  static_assert(Capacity >= sizeof(void*), "no room for the boxed pointer");

  template <typename D>
  static constexpr bool kStoredInline =
      sizeof(D) <= Capacity && alignof(D) <= kAlign &&
      std::is_nothrow_move_constructible_v<D>;

 public:
  InlineFunction() noexcept = default;
  InlineFunction(std::nullptr_t) noexcept {}

  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, InlineFunction> &&
             std::is_invocable_r_v<R, std::decay_t<F>&, Args...>)
  InlineFunction(F&& f) {
    emplace(std::forward<F>(f));
  }

  InlineFunction(InlineFunction&& other) noexcept { take(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }

  InlineFunction& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, InlineFunction> &&
             std::is_invocable_r_v<R, std::decay_t<F>&, Args...>)
  InlineFunction& operator=(F&& f) {
    reset();
    emplace(std::forward<F>(f));
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }
  friend bool operator==(const InlineFunction& f, std::nullptr_t) noexcept {
    return f.ops_ == nullptr;
  }

  /// Invokes the target; throws std::bad_function_call when empty.
  R operator()(Args... args) const {
    if (ops_ == nullptr) throw std::bad_function_call();
    return ops_->invoke(storage_, std::forward<Args>(args)...);
  }

  /// True when a callable of type F is stored without a heap allocation.
  template <typename F>
  static constexpr bool stores_inline() noexcept {
    return kStoredInline<std::decay_t<F>>;
  }

 private:
  struct Ops {
    R (*invoke)(void* storage, Args... args);
    /// Move-constructs the target from `src` storage into `dst` and ends
    /// the source's lifetime; null when copying the first `bytes` bytes
    /// does the same.
    void (*relocate)(void* dst, void* src) noexcept;
    /// Ends the target's lifetime; null when that is a no-op.
    void (*destroy)(void* storage) noexcept;
    std::size_t bytes;
  };

  template <typename D>
  static D& inline_target(void* storage) noexcept {
    return *std::launder(static_cast<D*>(storage));
  }
  template <typename D>
  static D*& boxed_target(void* storage) noexcept {
    return *std::launder(static_cast<D**>(storage));
  }

  template <typename D>
  static constexpr Ops make_ops() noexcept {
    if constexpr (kStoredInline<D>) {
      constexpr bool trivial = std::is_trivially_copyable_v<D> &&
                               std::is_trivially_destructible_v<D>;
      return Ops{
          [](void* s, Args... args) -> R {
            return static_cast<R>(std::invoke(inline_target<D>(s),
                                              std::forward<Args>(args)...));
          },
          trivial ? nullptr
                  : +[](void* dst, void* src) noexcept {
                      D& from = inline_target<D>(src);
                      ::new (dst) D(std::move(from));
                      from.~D();
                    },
          trivial ? nullptr
                  : +[](void* s) noexcept { inline_target<D>(s).~D(); },
          std::is_empty_v<D> ? 0 : sizeof(D)};
    } else {
      return Ops{
          [](void* s, Args... args) -> R {
            return static_cast<R>(std::invoke(*boxed_target<D>(s),
                                              std::forward<Args>(args)...));
          },
          nullptr,
          [](void* s) noexcept { delete boxed_target<D>(s); },
          sizeof(D*)};
    }
  }

  template <typename D>
  static constexpr Ops kOps = make_ops<D>();

  template <typename F>
  void emplace(F&& f) {
    using D = std::decay_t<F>;
    if constexpr (detail::kNullableCallable<D>) {
      if (!f) return;  // an empty std::function/pointer stays empty
    }
    if constexpr (kStoredInline<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(f)));
    }
    ops_ = &kOps<D>;
  }

  void take(InlineFunction& other) noexcept {
    ops_ = other.ops_;
    if (ops_ == nullptr) return;
    if (ops_->relocate != nullptr) {
      ops_->relocate(storage_, other.storage_);
    } else {
      std::memcpy(storage_, other.storage_, ops_->bytes);
    }
    other.ops_ = nullptr;
  }

  void reset() noexcept {
    if (ops_ != nullptr && ops_->destroy != nullptr) ops_->destroy(storage_);
    ops_ = nullptr;
  }

  const Ops* ops_ = nullptr;
  alignas(kAlign) mutable unsigned char storage_[Capacity];
};

}  // namespace ndft::sim
