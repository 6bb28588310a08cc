// Graph: a hash-consed tensor computation DAG (also used for rewrite
// patterns). Nodes are immutable once added; structurally identical nodes
// are deduplicated, so shared subgraphs are represented once — which is what
// makes the "sum of node costs" model account for sharing, both here and in
// the TASO-baseline search.
#pragma once

#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "lang/node.h"
#include "lang/shapes.h"
#include "support/span.h"

namespace tensat {

enum class GraphKind {
  kConcrete,  // every add() is shape-checked; kVar is rejected
  kPattern,   // kVar leaves allowed; no shape inference
};

class Graph {
 public:
  explicit Graph(GraphKind kind = GraphKind::kConcrete) : kind_(kind) {}

  [[nodiscard]] GraphKind kind() const { return kind_; }

  /// Adds a node (children must already exist). Returns the id of the
  /// existing identical node if there is one. For concrete graphs, throws
  /// tensat::Error if shape inference rejects the node.
  Id add(TNode node);

  /// Like add(), but returns nullopt instead of throwing when shape
  /// inference rejects the node. Used when applying rewrites to concrete
  /// graphs, where a shape-check failure just means "substitution does not
  /// apply here".
  std::optional<Id> try_add(TNode node);

  // ---- Leaf constructors -------------------------------------------------
  Id num(int64_t value) { return add(make_num(value)); }
  Id str(std::string_view text) { return add(make_str(Symbol(text))); }
  Id var(std::string_view name) { return add(make_var(Symbol(name))); }
  Id input(std::string_view name, const std::vector<int32_t>& dims);
  Id weight(std::string_view name, const std::vector<int32_t>& dims);

  // ---- Operator constructors (children given in Table 2 order) -----------
  Id ewadd(Id a, Id b) { return add({Op::kEwadd, 0, {}, {a, b}}); }
  Id ewmul(Id a, Id b) { return add({Op::kEwmul, 0, {}, {a, b}}); }
  Id matmul(Id a, Id b, Activation act = kActNone) {
    return add({Op::kMatmul, 0, {}, {num(act), a, b}});
  }
  Id conv(Id x, Id w, int32_t stride_h, int32_t stride_w, Padding pad = kPadSame,
          Activation act = kActNone) {
    return add({Op::kConv, 0, {},
                {num(stride_h), num(stride_w), num(pad), num(act), x, w}});
  }
  Id relu(Id x) { return add({Op::kRelu, 0, {}, {x}}); }
  Id tanh(Id x) { return add({Op::kTanh, 0, {}, {x}}); }
  Id sigmoid(Id x) { return add({Op::kSigmoid, 0, {}, {x}}); }
  Id poolmax(Id x, int32_t kh, int32_t kw, int32_t sh, int32_t sw,
             Padding pad = kPadValid, Activation act = kActNone) {
    return add({Op::kPoolmax, 0, {},
                {x, num(kh), num(kw), num(sh), num(sw), num(pad), num(act)}});
  }
  Id poolavg(Id x, int32_t kh, int32_t kw, int32_t sh, int32_t sw,
             Padding pad = kPadValid, Activation act = kActNone) {
    return add({Op::kPoolavg, 0, {},
                {x, num(kh), num(kw), num(sh), num(sw), num(pad), num(act)}});
  }
  Id transpose(Id x, const std::vector<int32_t>& perm) {
    return add({Op::kTranspose, 0, {}, {x, str(format_dims(perm))}});
  }
  Id enlarge(Id x, Id ref) { return add({Op::kEnlarge, 0, {}, {x, ref}}); }
  /// Concatenates 2..5 tensors; dispatches to kConcat2..kConcat5.
  Id concat(int32_t axis, const std::vector<Id>& inputs);
  Id split(int32_t axis, Id x) { return add({Op::kSplit, 0, {}, {num(axis), x}}); }
  Id split0(Id t) { return add({Op::kSplit0, 0, {}, {t}}); }
  Id split1(Id t) { return add({Op::kSplit1, 0, {}, {t}}); }
  Id merge(Id w, int32_t count) { return add({Op::kMerge, 0, {}, {w, num(count)}}); }
  Id reshape(Id x, const std::vector<int32_t>& dims) {
    return add({Op::kReshape, 0, {}, {x, str(format_dims(dims))}});
  }
  Id noop(Id a, Id b) { return add({Op::kNoop, 0, {}, {a, b}}); }

  // ---- Roots (graph outputs) ----------------------------------------------
  void add_root(Id id);
  void set_roots(std::vector<Id> roots) { roots_ = std::move(roots); }
  [[nodiscard]] const std::vector<Id>& roots() const { return roots_; }
  /// Combines all roots into a single root with a chain of noop nodes (the
  /// paper's single-rooting step) and returns it. Idempotent for one root.
  Id single_root();

  // ---- Access --------------------------------------------------------------
  [[nodiscard]] const TNode& node(Id id) const { return nodes_[id]; }
  [[nodiscard]] size_t size() const { return nodes_.size(); }
  /// ValueInfo for a node of a concrete graph (kInvalid for pattern graphs).
  [[nodiscard]] const ValueInfo& info(Id id) const { return infos_[id]; }

  /// Ids reachable from the roots, in topological order (children first).
  [[nodiscard]] std::vector<Id> topo_order() const;
  /// Number of nodes reachable from the roots.
  [[nodiscard]] size_t reachable_size() const { return topo_order().size(); }

  /// S-expression of the subgraph rooted at `id` (shared nodes re-expanded).
  [[nodiscard]] std::string to_sexpr(Id id) const;

  /// A canonical serialization of the reachable graph: equal strings iff the
  /// rooted DAGs are isomorphic. Used by the TASO search's visited set.
  [[nodiscard]] std::string canonical_key() const { return canonical_key(roots_); }
  /// The same serialization of the subgraph reachable from `roots`, in that
  /// order, as if they were this graph's roots.
  [[nodiscard]] std::string canonical_key(span<const Id> roots) const;

  /// Counts reachable nodes per operator (diagnostics / tests).
  [[nodiscard]] std::unordered_map<Op, int> op_histogram() const;

 private:
  GraphKind kind_;
  // Deques: node() and info() hand out references that must survive later
  // add() calls (appends never invalidate deque references).
  std::deque<TNode> nodes_;
  std::deque<ValueInfo> infos_;
  std::unordered_map<TNode, Id, TNodeHash> memo_;
  std::vector<Id> roots_;
};

}  // namespace tensat
