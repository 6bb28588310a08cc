// Cycle filtering (paper §5.2). Valid rewrites can make the e-graph cyclic
// (paper Fig. 3); extraction must return a DAG. TENSAT filters cycles during
// exploration so the ILP can drop its (expensive) acyclicity constraints:
//
//  * Vanilla: before every merge, check with a fresh whole-e-graph pass
//    whether the merge closes a cycle; discard the substitution if so.
//    O(n_m * N) per iteration.
//  * Efficient (Algorithm 2): a descendants map built once per iteration
//    gives a cheap pre-filter per match (almost every query is answered by
//    comparing two ranks); a DFS post-processing pass then finds the
//    cycles that slipped through and resolves each by filtering the
//    last-added e-node on it.
//
// The class graph here has an edge C -> D whenever some unfiltered e-node of
// class C has child class D; filtered e-nodes are invisible. The efficient
// filter's two passes index their per-class state by e-class id (ids are
// dense in [0, EGraph::num_ids())), so neither hashes.
//
// Concurrency: a DescendantsMap is immutable after construction, and
// reaches() keeps its search state in locals, so it is a pure read. The
// staged apply pipeline builds one per iteration on the clean, swept
// e-graph and shares it with every stage-1 planning worker; its answers do
// not depend on apply_threads or search_threads.
#pragma once

#include <cstdint>
#include <vector>

#include "egraph/egraph.h"

namespace tensat {

/// Transitive descendants of every e-class, answered from a snapshot of the
/// class graph in O(n + e) space: one row per canonical e-class, a CSR list
/// of each row's distinct child rows (over unfiltered e-nodes), and a DFS
/// post-order rank per row.
///
/// Precondition: the snapshot is acyclic. On an acyclic snapshot every edge
/// runs from a higher rank to a lower one, so reaches(from, to) is false
/// whenever rank(to) >= rank(from), and otherwise a DFS from `from` that only
/// enters rows ranked above rank(to) (every path to `to` passes only through
/// such rows) answers it exactly. The exploration loop keeps the
/// precondition: iteration 0 seeds a DAG, every later iteration starts after
/// filter_cycles(), and a session request only adds nodes. On a cyclic
/// snapshot the map may miss pairs that a back edge connects, but every
/// pair it reports is reachable.
///
/// Immutable after construction; reaches() keeps its search state in
/// locals, so concurrent readers share one map.
class DescendantsMap {
 public:
  explicit DescendantsMap(const EGraph& eg);

  /// True if `to` is a (transitive) descendant of `from`. Both ids must be
  /// canonical ids of the snapshot; any other id (created after it, merged
  /// away before it, or negative) returns false.
  [[nodiscard]] bool reaches(Id from, Id to) const;

 private:
  [[nodiscard]] int32_t row_of(Id id) const;
  /// Row of each e-class id, or -1 for ids that were not canonical.
  std::vector<int32_t> row_;
  /// Row r's distinct child rows are targets_[offsets_[r] .. offsets_[r+1]).
  std::vector<uint32_t> offsets_;
  std::vector<int32_t> targets_;
  /// DFS post-order rank of each row.
  std::vector<int32_t> rank_;
};

/// Fresh whole-graph reachability: true if merging `a` and `b` would close a
/// cycle (either can reach the other through unfiltered e-nodes). Used by
/// vanilla cycle filtering; cost O(N) per call.
bool merge_would_create_cycle(const EGraph& eg, Id a, Id b);

/// One round of Algorithm 2's post-processing (lines 10-18): repeatedly DFS
/// the class graph, collect cycles, and filter the most recently added
/// e-node on each, until no cycles remain. Returns the number of e-nodes
/// filtered. The e-graph must be clean (rebuilt).
size_t filter_cycles(EGraph& eg);

/// True if the class graph restricted to unfiltered e-nodes is acyclic.
bool is_acyclic(const EGraph& eg);

}  // namespace tensat
