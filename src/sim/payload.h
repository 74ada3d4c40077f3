// Message payloads: a copyable, type-erased box with inline storage.
//
// Every simulated packet carries one. The hot message types (application
// messages, snapshots, tokens, polls) fit the inline buffer, so sending one
// allocates nothing beyond what the value itself owns; larger or
// throwing-move types fall back to one heap allocation. The box is copyable
// because fault duplication and retransmission copy payloads. Access mirrors
// std::any_cast: payload_cast<T>(&p) yields null on a type mismatch,
// payload_cast<T>(p) throws std::bad_cast.
//
// A box rather than a std::variant: sim sits below app/detect, and tests and
// examples send their own types.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <typeinfo>
#include <utility>

namespace wcp::sim {

class Payload {
 public:
  static constexpr std::size_t kInlineSize = 88;
  static constexpr std::size_t kInlineAlign = alignof(std::max_align_t);

  /// True iff a T is stored inside the box (no heap allocation of its own).
  template <class T>
  static constexpr bool fits_inline = sizeof(T) <= kInlineSize &&
                                      alignof(T) <= kInlineAlign &&
                                      std::is_nothrow_move_constructible_v<T>;

  Payload() noexcept = default;

  /// Implicit, like std::any: `send(to, kind, std::move(msg), bits)`.
  template <class T, class D = std::decay_t<T>,
            std::enable_if_t<!std::is_same_v<D, Payload>, int> = 0>
  Payload(T&& value) {  // NOLINT(google-explicit-constructor)
    Model<D>::construct(*this, std::forward<T>(value));
    ops_ = &Model<D>::kOps;
  }

  Payload(const Payload& other) {
    if (other.ops_ == nullptr) return;
    other.ops_->copy(other, *this);
    ops_ = other.ops_;
  }
  Payload(Payload&& other) noexcept { take(other); }

  Payload& operator=(const Payload& other) {
    if (this != &other) {
      Payload copy(other);
      reset();
      take(copy);
    }
    return *this;
  }
  Payload& operator=(Payload&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }

  ~Payload() { reset(); }

  [[nodiscard]] bool has_value() const noexcept { return ops_ != nullptr; }
  [[nodiscard]] const std::type_info& type() const noexcept {
    return ops_ == nullptr ? typeid(void) : ops_->type();
  }

  void reset() noexcept {
    if (ops_ == nullptr) return;
    ops_->destroy(*this);
    ops_ = nullptr;
  }

 private:
  template <class T>
  friend T* payload_cast(Payload* p) noexcept;

  struct Ops {
    void (*copy)(const Payload& from, Payload& to);
    void (*move)(Payload& from, Payload& to) noexcept;  // destroys `from`'s value
    void (*destroy)(Payload& p) noexcept;
    const std::type_info& (*type)() noexcept;
  };

  template <class T>
  struct Model {
    static T* get(Payload& p) noexcept {
      if constexpr (fits_inline<T>)
        return std::launder(reinterpret_cast<T*>(p.buf_));
      else
        return static_cast<T*>(p.heap_);
    }
    template <class... Args>
    static void construct(Payload& p, Args&&... args) {
      if constexpr (fits_inline<T>)
        ::new (static_cast<void*>(p.buf_)) T(std::forward<Args>(args)...);
      else
        p.heap_ = new T(std::forward<Args>(args)...);
    }
    static void copy(const Payload& from, Payload& to) {
      const T& value = *get(const_cast<Payload&>(from));
      construct(to, value);
    }
    static void move(Payload& from, Payload& to) noexcept {
      if constexpr (fits_inline<T>) {
        ::new (static_cast<void*>(to.buf_)) T(std::move(*get(from)));
        get(from)->~T();
      } else {
        to.heap_ = from.heap_;
      }
    }
    static void destroy(Payload& p) noexcept {
      if constexpr (fits_inline<T>)
        get(p)->~T();
      else
        delete get(p);
    }
    static const std::type_info& type() noexcept { return typeid(T); }
    static constexpr Ops kOps{&copy, &move, &destroy, &type};
  };

  void take(Payload& other) noexcept {
    if (other.ops_ == nullptr) return;
    other.ops_->move(other, *this);
    ops_ = other.ops_;
    other.ops_ = nullptr;
  }

  union {
    alignas(kInlineAlign) unsigned char buf_[kInlineSize];
    void* heap_;
  };
  const Ops* ops_ = nullptr;
};

/// The payload's value if it holds exactly a T, else null.
template <class T>
T* payload_cast(Payload* p) noexcept {
  static_assert(!std::is_reference_v<T> && !std::is_const_v<T>,
                "payload_cast<T>(Payload*) takes a plain value type");
  if (p == nullptr || p->ops_ != &Payload::Model<T>::kOps) return nullptr;
  return Payload::Model<T>::get(*p);
}

template <class T>
const T* payload_cast(const Payload* p) noexcept {
  return payload_cast<T>(const_cast<Payload*>(p));
}

/// The payload's value as T (copied, or moved out of an rvalue payload);
/// throws std::bad_cast if it does not hold a std::remove_cvref_t<T>.
template <class T>
T payload_cast(const Payload& p) {
  const auto* v = payload_cast<std::remove_cvref_t<T>>(&p);
  if (v == nullptr) throw std::bad_cast();
  return static_cast<T>(*v);
}

template <class T>
T payload_cast(Payload& p) {
  auto* v = payload_cast<std::remove_cvref_t<T>>(&p);
  if (v == nullptr) throw std::bad_cast();
  return static_cast<T>(*v);
}

template <class T>
T payload_cast(Payload&& p) {
  auto* v = payload_cast<std::remove_cvref_t<T>>(&p);
  if (v == nullptr) throw std::bad_cast();
  return static_cast<T>(std::move(*v));
}

}  // namespace wcp::sim
