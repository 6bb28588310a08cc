// Mixed-integer linear programming by branch & bound over the LP relaxation
// (ilp/sparse.h's warm-started revised simplex). Stands in for SCIP in the
// paper's extraction phase.
//
// Features used by extraction: binary selection variables x_i, optional
// continuous or integer topological-order variables t_m (paper §5.1
// constraints (4)-(5)), warm-starting from a known feasible solution (the
// greedy extraction), and a wall-clock time limit (the paper's 1-hour SCIP
// timeout, scaled down).
#pragma once

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "ilp/lp.h"
#include "ilp/sparse.h"

namespace tensat {

/// Pseudocost totals of a finished solve, exportable across solves of the
/// SAME formulation (rows + objective; bounds may differ). Branching history
/// is the slowest-to-warm part of a B&B search, so a service solving the
/// same extraction core request after request seeds it instead of relearning
/// it. Purely advisory: pseudocosts rank branching candidates, they never
/// enter a bound or a certificate, so a stale snapshot can change the search
/// path but not the certified result.
struct PseudocostSnapshot {
  std::vector<double> sum_down, sum_up;
  std::vector<int> cnt_down, cnt_up;
  double total_rate{0.0};
  int total_cnt{0};
};

enum class MilpStatus {
  kOptimal,     // proven optimal
  kFeasible,    // stopped early (time/node limit) with an incumbent
  kInfeasible,  // no integer-feasible point exists
  kNoSolution,  // stopped early with no incumbent found
};

struct MilpOptions {
  double time_limit_s = 60.0;
  int max_nodes = 2000000;
  /// Relative MIP gap: stop when the bound is within rel_gap * |incumbent|.
  /// The incumbent is then reported optimal (within tolerance), as MILP
  /// solvers conventionally do.
  double rel_gap = 1e-3;
  /// Problem-specific rounding heuristic: maps a fractional LP solution to a
  /// candidate integer point. Candidates are verified (feasibility +
  /// integrality) before being accepted as incumbents. Optional.
  std::function<std::optional<std::vector<double>>(const std::vector<double>&)>
      rounding;
  /// Problem-specific cutting planes, separated at the root ("cut &
  /// branch"): given a fractional root LP solution, returns rows VALID FOR
  /// EVERY integer-feasible point (never just for the current relaxation),
  /// so the strengthened bound stays a certificate for the original
  /// problem. Rounds repeat — re-solve, separate, append — until the
  /// generator returns nothing, the bound stalls for five rounds, 200
  /// rounds have run, or 30% of the time budget is gone. Each round
  /// warm-starts from the previous basis extended with the new rows'
  /// slacks (basic, so still dual feasible).
  std::function<std::vector<LinearProgram::Row>(const std::vector<double>&)>
      cut_generator;
  /// Per-variable branching score weight: candidates are ranked by
  /// fractionality * weight, where weight defaults to 1 + |objective|.
  /// Lets zero-objective auxiliary variables carry the stakes they stand
  /// for: extraction weighs class-selection indicators by their class's
  /// option costs, so whole-class dichotomies — which actually move the
  /// bound, where fixing one option merely shifts mass to a sibling —
  /// compete with (and usually beat) per-option branching.
  std::vector<double> branch_weight;
  /// Cross-solve warm start (the service's request-to-request lever): a
  /// basis exported by a previous solve of the same formulation — same rows
  /// and objective; variable bounds may differ, exactly the guarantee
  /// SparseBasis documents. Seeds the first root LP (the first cut round
  /// when a cut_generator is set, the B&B root otherwise) in place of a cold
  /// two-phase start. Ignored when the snapshot's dimensions don't match.
  /// Like every warm basis here, numerical trouble falls back to a cold
  /// start — seeding can only change speed and tie-breaking among
  /// equally-optimal solutions, never the certified objective.
  std::shared_ptr<const SparseBasis> seed_basis;
  /// Cross-solve pseudocost seed from a previous solve of the same
  /// formulation. Ignored when the sizes don't match lp.num_vars().
  std::shared_ptr<const PseudocostSnapshot> seed_pseudocost;
};

struct MilpResult {
  MilpStatus status{MilpStatus::kNoSolution};
  std::vector<double> x;
  double objective{0.0};
  double best_bound{-kInf};  // proven lower bound on the optimum
  /// Certified relative optimality gap, relative_gap(objective, best_bound).
  /// 0 when optimality was proven by exhausting the tree; kInf when there
  /// is no incumbent. A rel-gap or time-limit stop reports the true frontier
  /// bound, so the gap is a real certificate.
  double gap{kInf};
  int nodes_explored{0};
  int lp_iterations{0};
  /// LP solves that reused a parent/previous basis without a cold restart.
  int warm_start_hits{0};
  /// Basis refactorizations across all node LPs.
  int refactorizations{0};
  /// Cutting planes added by the root cut loop (cut_generator).
  int cuts{0};
  bool timed_out{false};
  /// Basis of the ORIGINAL formulation's root relaxation (captured before
  /// any cuts are appended, so it stays valid as a seed_basis for a later
  /// solve of the same rows + objective). Null when the root solve produced
  /// no reusable basis.
  std::shared_ptr<const SparseBasis> root_basis;
  /// Pseudocost totals at the end of the search, reusable as
  /// seed_pseudocost on a later solve of the same formulation.
  std::shared_ptr<const PseudocostSnapshot> pseudocost;
};

/// The relative optimality gap of `cost` over a proven lower `bound`:
/// (cost - bound) / max(|cost|, eps), never negative. Every certified gap
/// (MilpResult::gap, ExtractStats::gap) is this one formula.
inline double relative_gap(double cost, double bound) {
  return std::max(0.0, (cost - bound) / std::max(std::abs(cost), 1e-12));
}

/// Solves min c.x over lp's constraints with x_j integral for every j with
/// integer_mask[j]. `warm_start`, if given, must be integer-feasible and
/// seeds the incumbent (its objective becomes the initial upper bound).
MilpResult solve_milp(const LinearProgram& lp, const std::vector<bool>& integer_mask,
                      const MilpOptions& options = {},
                      const std::optional<std::vector<double>>& warm_start = std::nullopt);

}  // namespace tensat
