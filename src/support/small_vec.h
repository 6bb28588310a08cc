// SmallVec<T, N>: a vector of plain-data elements that keeps its first N
// elements inline and moves them to one heap block only when it grows past
// N. Copying a SmallVec that fits inline never touches the heap, which is
// what keeps the tensor analysis values (lang/shapes.h) cheap to copy: every
// shape and concat history of the paper's models fits inline.
//
// Only what the analysis values use: no insert/erase in the middle, and T
// must be trivially copyable (elements are copied bitwise, never destroyed).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <type_traits>

namespace tensat {

template <typename T, uint32_t N>
class SmallVec {
  static_assert(std::is_trivially_copyable_v<T>, "SmallVec holds plain data only");
  static_assert(N > 0, "SmallVec needs an inline capacity");

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  SmallVec() noexcept = default;
  SmallVec(std::initializer_list<T> items) { assign(items.begin(), items.end()); }
  SmallVec(const T* first, const T* last) { assign(first, last); }
  SmallVec(const SmallVec& other) { copy_from(other); }
  SmallVec(SmallVec&& other) noexcept { take(other); }
  SmallVec& operator=(const SmallVec& other) {
    if (this != &other) {
      release();
      copy_from(other);
    }
    return *this;
  }
  SmallVec& operator=(SmallVec&& other) noexcept {
    if (this != &other) {
      release();
      take(other);
    }
    return *this;
  }
  ~SmallVec() { release(); }

  [[nodiscard]] size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// True while the elements live in the inline buffer.
  [[nodiscard]] bool is_inline() const { return cap_ == N; }

  [[nodiscard]] T* data() { return is_inline() ? storage_.items : storage_.heap; }
  [[nodiscard]] const T* data() const {
    return is_inline() ? storage_.items : storage_.heap;
  }
  T& operator[](size_t i) { return data()[i]; }
  const T& operator[](size_t i) const { return data()[i]; }
  [[nodiscard]] T* begin() { return data(); }
  [[nodiscard]] T* end() { return data() + size_; }
  [[nodiscard]] const T* begin() const { return data(); }
  [[nodiscard]] const T* end() const { return data() + size_; }

  void push_back(const T& value) {
    if (size_ == cap_) {
      const T copy = value;  // `value` may live in the buffer about to move
      T* block = grow(size_ + 1);
      block[size_++] = copy;
      return;
    }
    data()[size_++] = value;
  }

  /// Replaces the contents with [first, last). The range must not alias this
  /// vector's own elements.
  void assign(const T* first, const T* last) {
    const size_t n = static_cast<size_t>(last - first);
    size_ = 0;
    std::copy(first, last, n > cap_ ? grow(n) : data());
    size_ = static_cast<uint32_t>(n);
  }

  /// Empties the vector; a heap block, if any, is kept for reuse.
  void clear() { size_ = 0; }

  friend bool operator==(const SmallVec& a, const SmallVec& b) {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }
  friend bool operator!=(const SmallVec& a, const SmallVec& b) { return !(a == b); }

 private:
  /// The inline elements, or the heap block once cap_ > N. Plain data, so
  /// an inline vector copies by copying this union.
  union Storage {
    Storage() noexcept : items{} {}
    T items[N];
    T* heap;
  };

  /// Moves the elements to a heap block of at least `min_capacity` and
  /// returns it.
  T* grow(size_t min_capacity) {
    const size_t cap = std::max<size_t>(min_capacity, 2 * size_t{cap_});
    T* block = new T[cap];
    std::copy(begin(), end(), block);
    release();
    storage_.heap = block;
    cap_ = static_cast<uint32_t>(cap);
    return block;
  }

  /// Frees the heap block, if any; the vector is inline afterwards.
  void release() {
    if (is_inline()) return;
    delete[] storage_.heap;
    storage_ = Storage();
    cap_ = N;
  }

  /// Copies `other` into this released (inline) vector.
  void copy_from(const SmallVec& other) {
    if (other.is_inline()) {
      storage_ = other.storage_;
      size_ = other.size_;
    } else {
      assign(other.begin(), other.end());
    }
  }

  /// Takes `other`'s elements (its heap block, or a copy of its inline
  /// ones) into this released vector, leaving `other` empty and inline.
  void take(SmallVec& other) {
    storage_ = other.storage_;
    size_ = other.size_;
    cap_ = other.cap_;
    other.size_ = 0;
    other.cap_ = N;
  }

  uint32_t size_{0};
  uint32_t cap_{N};  // N while inline, the heap block's size after
  Storage storage_;
};

}  // namespace tensat
