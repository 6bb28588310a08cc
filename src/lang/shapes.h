// Shape inference / value analysis for the tensor language.
//
// A ValueInfo describes what a node computes: a tensor (with shape), an
// integer or string parameter, or a tensor tuple (the result of split).
// This single implementation backs:
//   * e-class analysis in the e-graph (the paper's "shape checking", §4),
//   * validation when constructing concrete graphs,
//   * the cost model (which needs operand shapes), and
//   * the reference interpreter (which mirrors the same split semantics).
//
// Split semantics: following TASO/TENSAT, `split(axis, t)` splits `t` at the
// boundary of the most recent concat along `axis`. We track a stack of
// (axis, boundary) entries per tensor value; a binary concat pushes an entry
// and split consumes the most recent entry for its axis. Both halves of a
// split inherit the history prefix that preceded the consumed entry.
#pragma once

#include <optional>
#include <string>

#include "support/small_vec.h"
#include "support/span.h"

#include "lang/node.h"

namespace tensat {

enum class VKind : uint8_t { kInvalid, kTensor, kNum, kStr, kTuple };

/// One concat boundary: concat along `axis` whose first operand ended at
/// `pos` (so the second operand spans [pos, end)).
struct ConcatEntry {
  int32_t axis{0};
  int32_t pos{0};
  friend bool operator==(const ConcatEntry& a, const ConcatEntry& b) {
    return a.axis == b.axis && a.pos == b.pos;
  }
  friend bool operator!=(const ConcatEntry& a, const ConcatEntry& b) { return !(a == b); }
};

/// Tensor dims. Four fit inline (every tensor of the paper's models has
/// rank <= 4); higher ranks spill to the heap.
using Dims = SmallVec<int32_t, 4>;
/// A concat-boundary stack. Two entries fit inline (no class of the paper's
/// models, explored at saturation settings, carries more); deeper histories
/// spill to the heap.
using ConcatHistory = SmallVec<ConcatEntry, 2>;

/// The analysis value of a node. Plain data held in small inline buffers,
/// so copying one (the e-graph does per node added and per merge) stays
/// off the heap unless a shape or history outgrows its buffer.
struct ValueInfo {
  VKind kind{VKind::kInvalid};
  Dims shape;                        // kTensor: dims; kTuple: dims of first half
  Dims shape2;                       // kTuple: dims of second half
  ConcatHistory hist;                // concat-boundary stack (kTensor / kTuple prefix)
  int64_t num{0};                    // kNum payload
  Symbol str{};                      // kStr payload
  bool weight_only{false};           // value derivable from weights alone
                                     // (precomputable at inference time)

  friend bool operator==(const ValueInfo& a, const ValueInfo& b) {
    return a.kind == b.kind && a.shape == b.shape && a.shape2 == b.shape2 &&
           a.hist == b.hist && a.num == b.num && a.str == b.str &&
           a.weight_only == b.weight_only;
  }
  friend bool operator!=(const ValueInfo& a, const ValueInfo& b) { return !(a == b); }

  [[nodiscard]] bool is_tensor() const { return kind == VKind::kTensor; }
  [[nodiscard]] int rank() const { return static_cast<int>(shape.size()); }
  /// Number of elements (kTensor). 1 for rank-0.
  [[nodiscard]] int64_t volume() const;

  static ValueInfo of_num(int64_t v);
  static ValueInfo of_str(Symbol s);
  static ValueInfo of_tensor(Dims dims, bool weight_only = false);
};

/// Infers the output ValueInfo for `node` given its children's infos (in
/// child order, by pointer, so callers hand over the values where they live
/// instead of copying them). Returns nullopt when the operator's shape
/// preconditions do not hold — this is exactly the paper's shape check that
/// gates rewrite application. kVar nodes always return nullopt.
std::optional<ValueInfo> infer(const TNode& node, span<const ValueInfo* const> inputs);

/// Human-readable rendering, for diagnostics and test failure messages.
std::string to_string(const ValueInfo& v);

}  // namespace tensat
