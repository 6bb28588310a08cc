// Reduction passes of the extraction engine: exact presolve that shrinks the
// decision problem before any MILP is assembled. Every pass preserves the
// optimal extraction cost (see docs/ARCHITECTURE.md for the soundness
// arguments); the differential oracle is the monolithic ILP (extract_ilp).
//
//  * Forced-choice propagation: the root is selected in every solution; a
//    class is forced when some forced parent's every live e-node references
//    it. Forced classes with a single live e-node are constants — their cost
//    folds into Problem::base_cost and they leave the MILP entirely.
//  * Cost-dominance pruning: within a class, an e-node whose distinct child
//    class set is a superset of a sibling's, at no lower cost, can never
//    appear in a cheapest solution — swapping in the sibling stays feasible
//    (it needs fewer children) and never costs more. Subsumes the old
//    equal-child-set grouping, and is safe under cycle constraints because
//    the swap only removes selection edges.
//  * Incumbent-bound pruning (off under cycle constraints): an e-node n is
//    pruned when a live sibling n' satisfies
//    cost(n') + sum over n''s children of their greedy DP bound <= cost(n):
//    any solution through n pays at least cost(n) for it, and can instead
//    take n' plus greedy subtrees for its children at a total of at most
//    that. The greedy solution seeds the bounds.
//  * Infeasibility propagation: a class with no finite DP value cannot be
//    extracted at all, so e-nodes referencing it are pruned (the cover rows
//    would have forced their variables to zero anyway).
//  * Tree-like collapse: a class is tree-like when it is acyclic and every
//    strict descendant has exactly one parent class. Such a subtree is
//    exclusive (no entry except through its top) and sharing-free, so the
//    greedy DP is *exact* on it: the top becomes a single pseudo-leaf
//    variable of cost dp_cost (cost 0 => dropped entirely), and the interior
//    is reconstructed from dp choices during stitching.
#pragma once

#include "extract/engine/problem.h"

namespace tensat {
namespace exteng {

struct ReduceOptions {
  /// Mirrors IlpExtractOptions::cycle_constraints: when the MILP must forbid
  /// cyclic selections, reductions that could change cycle structure
  /// (forced-constant removal of potentially-cyclic classes, incumbent-bound
  /// pruning) are skipped or gated on acyclicity.
  bool cycle_constraints = false;
};

struct ReduceStats {
  size_t classes_forced{0};      // removed as constants
  size_t nodes_pruned_dominated{0};
  size_t nodes_pruned_bound{0};
  size_t classes_free{0};        // zero-cost classes dropped entirely
  size_t classes_collapsed{0};   // tree-like pseudo-leaves
  size_t classes_interior{0};
  bool infeasible{false};        // no finite extraction of the root exists
};

/// Runs forced/dominance/incumbent/infeasibility passes to fixpoint.
/// Requires parents, dp, and SCC flags to be current; leaves parents and dp
/// recomputed for the reduced problem. Sets stats.infeasible (and stops)
/// when the root has no finite extraction. Accumulates into `stats` like
/// mark_free/collapse_treelike, so one ReduceStats collects all passes.
void reduce(Problem& p, const ReduceOptions& options, ReduceStats& stats);

/// Marks free classes: bottom-up fixpoint of "has a zero-cost live option
/// whose children are all free". A free class is selectable at will at zero
/// cost, so it needs no variable and no cover rows; its free_choice closure
/// is acyclic by construction (cyclic derivations never reach the fixpoint),
/// which keeps the removal sound under cycle constraints — the same argument
/// as the monolithic free_class presolve, generalized to multi-e-node
/// classes and shared parents. Run BEFORE reduce(): free-ness is structural,
/// and forced-constant removal of a zero-cost leaf would otherwise block the
/// tower above it from qualifying.
void mark_free(Problem& p, ReduceStats& stats);

/// Marks tree-like subtrees: tops become collapsed pseudo-leaves, interiors
/// leave the MILP. Requires mark_free(), reduce(), and condense_sccs() to
/// have run (dp values current, cyclic flags set).
void collapse_treelike(Problem& p, ReduceStats& stats);

}  // namespace exteng
}  // namespace tensat
