// TNode: one operator node. The same struct serves three roles:
//   * a node in a concrete tensor computation graph (children = node ids),
//   * an e-node in the e-graph (children = e-class ids),
//   * a node in a rewrite pattern (kVar leaves allowed).
//
// A TNode is plain data: its children sit in an inline array of kMaxArity
// ids, so copying, hashing or comparing a node never touches the heap. The
// e-graph copies nodes freely (class member lists, hash-cons keys, staged
// nodes), which is why this matters.
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <type_traits>

#include "lang/op.h"
#include "support/hash.h"
#include "support/symbol.h"

namespace tensat {

/// Index of a node within a Graph, or of an e-class within an EGraph.
using Id = int32_t;
inline constexpr Id kInvalidId = -1;

/// The largest operator arity (poolmax, poolavg); lang_test checks every op.
inline constexpr size_t kMaxArity = 7;

namespace detail {
/// Throws tensat::Error for a node given more than kMaxArity children.
[[noreturn]] void fail_too_many_children();
}  // namespace detail

/// A node's children: up to kMaxArity ids stored inline, plus their count.
/// push_back past kMaxArity throws tensat::Error, so an input line or an
/// S-expression with too many arguments is rejected as it is read.
class Children {
 public:
  using value_type = Id;
  using iterator = Id*;
  using const_iterator = const Id*;

  constexpr Children() = default;
  Children(std::initializer_list<Id> ids) {
    for (Id id : ids) push_back(id);
  }

  [[nodiscard]] size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  Id& operator[](size_t i) { return ids_[i]; }
  const Id& operator[](size_t i) const { return ids_[i]; }
  [[nodiscard]] Id* begin() { return ids_; }
  [[nodiscard]] Id* end() { return ids_ + size_; }
  [[nodiscard]] const Id* begin() const { return ids_; }
  [[nodiscard]] const Id* end() const { return ids_ + size_; }

  void push_back(Id id) {
    if (size_ == kMaxArity) detail::fail_too_many_children();
    ids_[size_++] = id;
  }

  friend bool operator==(const Children& a, const Children& b) {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }
  friend bool operator!=(const Children& a, const Children& b) { return !(a == b); }

 private:
  Id ids_[kMaxArity]{};
  uint8_t size_{0};
};

struct TNode {
  Op op{Op::kNum};
  int64_t num{0};            // payload when op == kNum
  Symbol str{};              // payload when op == kStr or kVar
  Children children{};

  friend bool operator==(const TNode& a, const TNode& b) {
    return a.op == b.op && a.num == b.num && a.str == b.str && a.children == b.children;
  }
};
static_assert(std::is_trivially_copyable_v<TNode>,
              "TNode is plain data: copies must not touch the heap");

struct TNodeHash {
  size_t operator()(const TNode& n) const {
    size_t seed = static_cast<size_t>(n.op);
    hash_combine_value(seed, n.num);
    hash_combine_value(seed, n.str.id());
    for (Id c : n.children) hash_combine_value(seed, c);
    return seed;
  }
};

inline TNode make_num(int64_t value) { return TNode{Op::kNum, value, Symbol(), {}}; }
inline TNode make_str(Symbol s) { return TNode{Op::kStr, 0, s, {}}; }
inline TNode make_var(Symbol name) { return TNode{Op::kVar, 0, name, {}}; }

}  // namespace tensat
