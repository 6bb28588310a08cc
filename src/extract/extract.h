// Extraction phase (paper §5): pick one e-node per needed e-class so the
// chosen graph minimizes total cost.
//
//  * Greedy: per-class cheapest best-subtree e-node (egg's default),
//    settle-once: classes are finalized in nondecreasing cost order from a
//    min-heap, each evaluated once, which needs node costs >= 0. A tie goes
//    to the first e-node in class order whose children settled before its
//    class, so the selection is always acyclic. Ignores sharing, so it can
//    pick strictly worse graphs (paper §6.5 / Table 4).
//  * ILP: the paper's formulation — binary x_i per e-node, root constraint
//    (2), child-cover constraints (3), optionally the topological-order
//    cycle constraints (4)-(5) with real or integer t_m. Filter-list
//    e-nodes are pinned to x_i = 0 (we simply omit their variables).
//    Solved by the in-repo branch & bound (ilp/milp.h), warm-started from
//    the greedy solution. This is the paper's literal formulation: the
//    differential oracle for extract_engine (extract/engine/engine.h, the
//    production extractor) and the subject of the Table-5 ablation.
#pragma once

#include <unordered_map>

#include "cost/cost.h"
#include "egraph/egraph.h"
#include "ilp/milp.h"

namespace tensat {

struct ExtractionResult {
  bool ok{false};
  Graph graph;  // concrete, single root
  double cost{0.0};
};

/// Per-phase wall-clock and size breakdown of one extraction, threaded
/// through TensatResult so `extract_seconds` regressions can be pinned to
/// the dominant phase (mirrors ExploreStats for exploration). The monolithic
/// ILP fills reach/lp_build/solve/stitch; the decomposing engine
/// (extract/engine/engine.h) additionally fills reduce_seconds and the
/// reduction/core counters.
struct ExtractStats {
  double reach_seconds{0.0};     // reachable sub-e-graph collection
  double reduce_seconds{0.0};    // reductions + SCC condensation + collapse
  double lp_build_seconds{0.0};  // LP/MILP assembly (all cores)
  double solve_seconds{0.0};     // branch & bound (all cores, wall clock)
  double stitch_seconds{0.0};    // selection -> concrete Graph rebuild
  size_t classes_reachable{0};
  size_t classes_forced{0};      // forced constants removed before the MILP
  size_t classes_free{0};        // zero-cost classes dropped entirely
  size_t classes_collapsed{0};   // tree-like pseudo-leaves solved by exact DP
  size_t classes_interior{0};    // classes inside collapsed regions
  size_t nodes_pruned_dominated{0};  // cost-dominance reductions
  size_t nodes_pruned_bound{0};      // greedy-incumbent-bound reductions
  size_t num_cores{0};           // independent MILP components solved
  size_t largest_core_vars{0};   // decision variables of the biggest core
  size_t milp_vars_total{0};     // decision variables summed over cores
  double base_cost{0.0};         // constant cost folded out of the MILPs
  size_t fallback_cores{0};  // oversized cores solved by the LP-relaxation +
                             // rounding fallback (bounded gap, no proof)
  int warm_start_hits{0};    // node LPs restored from a parent basis
  int refactorizations{0};   // sparse-basis rebuilds across all node LPs
  /// Certified relative optimality gap of the returned graph,
  /// relative_gap(cost, best_bound) (ilp/milp.h). 0 when optimality was
  /// proven; kInf when extraction produced no graph.
  double gap{kInf};
};

/// Greedy extraction from the e-graph's root class.
ExtractionResult extract_greedy(const EGraph& eg, const CostModel& model);

struct IlpExtractOptions {
  /// Include the acyclicity constraints (4)-(5). Leave off when the e-graph
  /// was cycle-filtered during exploration (the paper's full approach).
  bool cycle_constraints = false;
  /// Integer-valued t_m (the paper's ablation) instead of real-valued.
  bool integer_topo_vars = false;
  double time_limit_s = 10.0;
  /// extract_ilp refuses instances with more decision variables than this,
  /// reported as too_large + timed_out: the stand-in for the paper's
  /// ">1 hour" SCIP entries, where one monolithic ILP over the whole
  /// reachable sub-e-graph is too large to solve. The engine ignores it and
  /// caps each residual core instead (ExtractEngineOptions::max_core_nodes).
  size_t max_instance_nodes = 2600;
  /// Relative MIP gap handed to the branch & bound: an incumbent within
  /// rel_gap * |incumbent| of the proven bound is reported optimal. Tests
  /// that pin exact engine-vs-monolithic cost parity set this to 0.
  double rel_gap = 1e-3;
};

struct IlpExtractionResult : ExtractionResult {
  MilpStatus milp_status{MilpStatus::kNoSolution};
  bool timed_out{false};
  bool too_large{false};
  double solve_seconds{0.0};  // always stats.solve_seconds
  int bb_nodes{0};
  double best_bound{0.0};  // proven lower bound from branch & bound
  int lp_iterations{0};
  /// The solver's selection is cyclic or incomplete (possible only when
  /// cycle_constraints are off and the e-graph was not filtered), so it
  /// could not be rebuilt into a graph; the result fell back to the greedy
  /// graph, if greedy found one.
  bool cyclic_selection{false};
  /// A selected e-node failed the concrete shape check (Graph::try_add), so
  /// the selection could not be rebuilt into a graph; the result fell back
  /// as for cyclic_selection. A class whose analysis data is a join over
  /// disagreeing members can hand the optimum a member that cannot honor
  /// its child's boundary: a split added while its child class still had a
  /// concat boundary, which a later merge with a member lacking it cleared.
  bool unbuildable_selection{false};
  /// Per-phase breakdown (reach/reduce/lp-build/solve/stitch + sizes).
  ExtractStats stats;
};

/// ILP extraction from the e-graph's root class.
IlpExtractionResult extract_ilp(const EGraph& eg, const CostModel& model,
                                const IlpExtractOptions& options = {});

/// The stitch both ILP extractors end with: rebuilds the solver's per-class
/// `selection` from the root class into result.graph and sets ok, cost and
/// stats.gap against result.best_bound. A selection that does not build
/// sets cyclic_selection or unbuildable_selection instead, and the result
/// falls back to `greedy` (the best known feasible graph) when it is ok.
void stitch_selection(const EGraph& eg, const CostModel& model,
                      const std::unordered_map<Id, TNode>& selection,
                      ExtractionResult greedy, IlpExtractionResult& result);

}  // namespace tensat
