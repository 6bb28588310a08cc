#include "ilp/milp.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <queue>

#include "ilp/sparse.h"
#include "support/check.h"
#include "trace/trace.h"

namespace tensat {
namespace {

constexpr double kIntTol = 1e-6;  // integrality tolerance
constexpr double kGapTol = 1e-9;  // prune nodes within this of the incumbent
constexpr int kMaxCutRounds = 200;

/// One open subproblem: variable-bound overrides relative to the root LP,
/// plus the parent's LP bound for best-first ordering. `warm` is the
/// parent's optimal basis (shared by both children): the child LP differs
/// from the parent's by one bound flip, so the basis is still dual feasible
/// and the dual simplex restores it in a few pivots.
struct Node {
  std::vector<std::pair<int, std::pair<double, double>>> bound_overrides;
  double parent_bound{-kInf};
  int depth{0};
  std::shared_ptr<const SparseBasis> warm;
  // Which branch created this node, for pseudocost learning: the variable,
  // the distance its parent LP value was rounded (toward this child), and
  // the direction. branch_var < 0 for the root.
  int branch_var{-1};
  double branch_frac{0.0};
  bool branch_up{false};
};

struct NodeOrder {
  bool operator()(const Node& a, const Node& b) const {
    return a.parent_bound > b.parent_bound;  // min-heap on bound
  }
};

/// Per-direction pseudocosts: the LP bound gain per unit of rounded-off
/// fractionality, averaged over the branchings the tree actually explored.
/// Variables with history are ranked by what their dichotomies really move;
/// unseen ones borrow the global average (same units), or the caller's
/// static branch weight before anything has been observed.
struct Pseudocost {
  std::vector<double> sum_down, sum_up;
  std::vector<int> cnt_down, cnt_up;
  double total_rate{0.0};
  int total_cnt{0};
  explicit Pseudocost(size_t n)
      : sum_down(n, 0.0), sum_up(n, 0.0), cnt_down(n, 0), cnt_up(n, 0) {}
  /// Resumes from an exported snapshot of a same-formulation solve; a
  /// size-mismatched snapshot is ignored (cold pseudocosts).
  Pseudocost(size_t n, const PseudocostSnapshot* seed) : Pseudocost(n) {
    if (seed == nullptr || seed->sum_down.size() != n ||
        seed->sum_up.size() != n || seed->cnt_down.size() != n ||
        seed->cnt_up.size() != n)
      return;
    sum_down = seed->sum_down;
    sum_up = seed->sum_up;
    cnt_down = seed->cnt_down;
    cnt_up = seed->cnt_up;
    total_rate = seed->total_rate;
    total_cnt = seed->total_cnt;
  }
  [[nodiscard]] PseudocostSnapshot snapshot() const {
    return PseudocostSnapshot{sum_down, sum_up, cnt_down, cnt_up,
                              total_rate, total_cnt};
  }
  void observe(int j, bool up, double frac, double gain) {
    if (frac < 1e-9) return;
    const double rate = std::max(0.0, gain) / frac;
    (up ? sum_up : sum_down)[j] += rate;
    ++(up ? cnt_up : cnt_down)[j];
    total_rate += rate;
    ++total_cnt;
  }
  double rate(int j, bool up, double fallback) const {
    const int c = (up ? cnt_up : cnt_down)[j];
    if (c > 0) return (up ? sum_up : sum_down)[j] / c;
    return total_cnt > 0 ? total_rate / total_cnt : fallback;
  }
};

/// Picks the branching variable: the product rule over the estimated bound
/// movement of both children — a variable only scores high when BOTH sides
/// of its dichotomy move the bound, which is what shrinks the tree.
int pick_branch_var(const std::vector<double>& x, const std::vector<bool>& mask,
                    const std::vector<double>& objective,
                    const std::vector<double>& weight, const Pseudocost& pc) {
  int best = -1;
  double best_score = 0.0;
  for (size_t j = 0; j < x.size(); ++j) {
    if (!mask[j]) continue;
    const double frac_down = x[j] - std::floor(x[j]);
    const double frac_up = std::ceil(x[j]) - x[j];
    if (std::min(frac_down, frac_up) <= kIntTol) continue;
    const double w =
        j < weight.size() ? weight[j] : 1.0 + std::abs(objective[j]);
    const int jj = static_cast<int>(j);
    const double est_down = pc.rate(jj, false, w) * frac_down;
    const double est_up = pc.rate(jj, true, w) * frac_up;
    const double score =
        std::max(est_down, 1e-6) * std::max(est_up, 1e-6);
    if (best < 0 || score > best_score) {
      best_score = score;
      best = jj;
    }
  }
  return best;
}

}  // namespace

MilpResult solve_milp(const LinearProgram& lp_in, const std::vector<bool>& integer_mask,
                      const MilpOptions& options,
                      const std::optional<std::vector<double>>& warm_start) {
  TENSAT_CHECK(static_cast<int>(integer_mask.size()) == lp_in.num_vars(),
               "integer mask size mismatch");
  // Span on the caller's lane (engine cores call from pool workers), and the
  // clock of the time limit; the B&B/LP work totals go through incr(),
  // whose per-lane sums merge into deterministic aggregates regardless of
  // which worker solved which core.
  const trace::ScopedSpan span("milp/solve", lp_in.num_vars(), trace::Timed{});
  MilpResult result;

  // ---- Root cut loop (cut & branch) --------------------------------------
  // Repeatedly solve the relaxation and append the generator's violated
  // rows. The rows are valid for every integer point (the generator's
  // contract), so the whole tree — and the reported best_bound — stays a
  // certificate for the original problem. Each round warm-starts from the
  // previous optimal basis extended with the new rows' slacks: appended
  // rows keep every existing column index, the new slacks are basic (still
  // dual feasible), and the dual simplex repairs their bound violations.
  // An empty cut_warm means a cold start.
  LinearProgram augmented;
  std::shared_ptr<const SparseBasis> root_warm;
  if (options.cut_generator) {
    augmented = lp_in;
    // Cross-solve seed: round 0 solves the original formulation, exactly
    // what the exported root_basis was recorded against. load_warm rejects
    // a dimension mismatch and falls back cold, so a stale seed costs
    // nothing.
    SparseBasis cut_warm;
    if (options.seed_basis) cut_warm = *options.seed_basis;
    double stall_ref = -kInf;  // objective at the last "real" improvement
    int stalled = 0;
    for (int round = 0; round < kMaxCutRounds; ++round) {
      if (span.elapsed_seconds() > 0.3 * options.time_limit_s) break;
      SparseBasis basis_now;
      SparseLpSolver solver(augmented);
      const LpResult root = solver.solve(augmented.lower, augmented.upper,
                                         &cut_warm, &basis_now);
      result.lp_iterations += root.iterations;
      result.refactorizations += root.refactorizations;
      if (root.warm) ++result.warm_start_hits;
      // Round 0 is the original formulation (no cut rows yet): its basis is
      // the one a later solve of the same formulation can seed from.
      if (round == 0 && !basis_now.empty())
        result.root_basis = std::make_shared<const SparseBasis>(basis_now);
      if (root.status != LpStatus::kOptimal) break;
      // Diminishing returns: once rounds stop moving the bound, further
      // cuts only bloat the node LPs — hand the time to branch & bound.
      if (root.objective >
          stall_ref + std::max(1e-6, 1e-3 * std::abs(root.objective))) {
        stall_ref = root.objective;
        stalled = 0;
      } else if (++stalled >= 5) {
        break;
      }
      const std::vector<LinearProgram::Row> cuts =
          options.cut_generator(root.x);
      if (cuts.empty()) {
        // Relaxation is cut-clean: seed the B&B root with its basis.
        if (!basis_now.empty())
          root_warm = std::make_shared<const SparseBasis>(std::move(basis_now));
        break;
      }
      // Slack columns are numbered n + bounded-row-index, so appending rows
      // leaves every existing index intact.
      size_t bounded_before = 0;
      for (const LinearProgram::Row& r : augmented.rows)
        if (!(r.lo == -kInf && r.hi == kInf)) ++bounded_before;
      size_t added = 0;
      for (const LinearProgram::Row& row : cuts) {
        augmented.rows.push_back(row);
        if (!(row.lo == -kInf && row.hi == kInf)) ++added;
        ++result.cuts;
      }
      if (!basis_now.empty()) {
        cut_warm = std::move(basis_now);
        for (size_t i = 0; i < added; ++i) {
          cut_warm.basic.push_back(static_cast<int32_t>(
              augmented.num_vars() + bounded_before + i));
          cut_warm.at_upper.push_back(0);
        }
      }
    }
  }
  const LinearProgram& lp = options.cut_generator ? augmented : lp_in;

  if (warm_start.has_value()) {
    TENSAT_CHECK(lp.feasible(*warm_start, 1e-5), "warm start is not feasible");
    result.x = *warm_start;
    result.objective = lp.objective_value(*warm_start);
    result.status = MilpStatus::kFeasible;
  }
  double incumbent = warm_start ? result.objective : kInf;
  // Effective pruning cutoff: absolute or relative gap, whichever is looser.
  auto cutoff = [&] {
    return incumbent - std::max(kGapTol, options.rel_gap * std::abs(incumbent));
  };

  std::priority_queue<Node, std::vector<Node>, NodeOrder> open;
  Pseudocost pseudocost(static_cast<size_t>(lp.num_vars()),
                        options.seed_pseudocost.get());
  Node root_node;
  root_node.warm = std::move(root_warm);  // cut-clean basis, if any
  if (root_node.warm == nullptr && !options.cut_generator &&
      options.seed_basis && !options.seed_basis->empty()) {
    // No cut loop ran: the B&B root solves the original formulation
    // directly, so the cross-solve seed applies to it.
    root_node.warm = options.seed_basis;
  }
  open.push(std::move(root_node));
  double explored_bound_floor = kInf;  // min bound among pruned-by-bound nodes
  double stop_frontier = kInf;  // open frontier at the rel-gap stop
  bool gap_stop = false;
  bool exhausted = true;

  // Node LPs: one persistent sparse solver shares the CSC/normalization
  // across the whole tree (nodes differ only in bounds).
  std::vector<double> node_lo = lp.lower;
  std::vector<double> node_hi = lp.upper;
  SparseLpSolver node_solver(lp);
  auto solve_node = [&](const SparseBasis* warm,
                        SparseBasis* basis_out) -> LpResult {
    const LpResult r = node_solver.solve(node_lo, node_hi, warm, basis_out);
    result.lp_iterations += r.iterations;
    result.refactorizations += r.refactorizations;
    if (r.warm) ++result.warm_start_hits;
    return r;
  };

  // LP-guided diving: starting from a fractional point, repeatedly fix the
  // least-fractional integer variable to its nearest value and re-solve.
  // Finds coordinated integer solutions (e.g. a whole merged-operator
  // subtree) that single-shot rounding misses. Bounds in node_lo/node_hi
  // must be at the intended values on entry; they are restored on exit.
  // Successive dive LPs chain the basis: each re-solve warm-starts from the
  // previous one (one more bound fixed = one dual restoration).
  auto dive = [&](std::vector<double> x, const SparseBasis* seed_basis) {
    std::vector<std::pair<int, std::pair<double, double>>> fixed;
    auto fix = [&](int j, double v) {
      fixed.emplace_back(j, std::make_pair(node_lo[j], node_hi[j]));
      node_lo[j] = v;
      node_hi[j] = v;
    };
    SparseBasis dive_basis;
    if (seed_basis != nullptr) dive_basis = *seed_basis;
    for (int depth = 0; depth < 60; ++depth) {
      if (span.elapsed_seconds() > options.time_limit_s) break;
      // Fix every near-integral variable at once ("vector diving"), plus the
      // least-fractional remaining one — keeps dives to a handful of LPs.
      int var = -1;
      double best_frac = 1.0;
      for (size_t j = 0; j < x.size(); ++j) {
        if (!integer_mask[j]) continue;
        const double frac = std::abs(x[j] - std::round(x[j]));
        if (frac <= kIntTol) continue;
        if (frac < 0.05) {
          fix(static_cast<int>(j), std::round(x[j]));
        } else if (frac < best_frac) {
          best_frac = frac;
          var = static_cast<int>(j);
        }
      }
      if (var < 0) {  // integral (after snapping): candidate incumbent
        for (size_t j = 0; j < x.size(); ++j)
          if (integer_mask[j]) x[j] = std::round(x[j]);
        const double obj = lp.objective_value(x);
        if (obj < incumbent && lp.feasible(x, 1e-6)) {
          incumbent = obj;
          result.x = x;
          result.objective = obj;
          result.status = MilpStatus::kFeasible;
        }
        break;
      }
      fix(var, std::round(x[var]));
      const LpResult sub = solve_node(&dive_basis, &dive_basis);
      if (sub.status != LpStatus::kOptimal || sub.objective >= incumbent) break;
      x = sub.x;
    }
    for (auto it = fixed.rbegin(); it != fixed.rend(); ++it) {
      node_lo[it->first] = it->second.first;
      node_hi[it->first] = it->second.second;
    }
  };

  // Plunging: after a branch, the child whose bound flip least perturbs the
  // parent LP is solved immediately (its warm basis is the solver's LIVE
  // one, so the eta file is reused without refactorizing — see
  // SparseLpSolver::solve); the sibling goes to the best-bound heap.
  // Pruning stays bound-based against the same cutoff, so plunging changes
  // visit order, never the certificate.
  std::optional<Node> plunge;
  while (plunge.has_value() || !open.empty()) {
    if (span.elapsed_seconds() > options.time_limit_s ||
        result.nodes_explored >= options.max_nodes) {
      result.timed_out = true;
      exhausted = false;
      break;
    }
    const bool plunged = plunge.has_value();
    Node node;
    if (plunged) {
      node = std::move(*plunge);
      plunge.reset();
    } else {
      node = open.top();
      open.pop();
    }
    if (node.parent_bound >= cutoff()) {
      if (plunged) continue;  // pruned mid-plunge; resume best-first
      // Best-first: every remaining node is at least as bad, so the
      // incumbent is optimal within the requested gap. Keep the frontier
      // bound so the reported gap stays a real certificate.
      stop_frontier = node.parent_bound;
      gap_stop = true;
      while (!open.empty()) open.pop();
      break;
    }
    ++result.nodes_explored;

    // Apply node bounds.
    for (const auto& [j, bounds] : node.bound_overrides) {
      node_lo[j] = bounds.first;
      node_hi[j] = bounds.second;
    }
    SparseBasis node_basis;
    LpResult relax = solve_node(node.warm.get(), &node_basis);
    // The first explored node is the root under original bounds; when no
    // cut loop captured the original-formulation basis, this one is it.
    if (result.nodes_explored == 1 && result.root_basis == nullptr &&
        !options.cut_generator && !node_basis.empty())
      result.root_basis = std::make_shared<const SparseBasis>(node_basis);
    // Restore root bounds.
    for (const auto& [j, bounds] : node.bound_overrides) {
      node_lo[j] = lp.lower[j];
      node_hi[j] = lp.upper[j];
    }

    if (relax.status == LpStatus::kOptimal && node.branch_var >= 0) {
      pseudocost.observe(node.branch_var, node.branch_up, node.branch_frac,
                         relax.objective - node.parent_bound);
    }
    if (relax.status == LpStatus::kInfeasible) continue;
    if (relax.status == LpStatus::kUnbounded) {
      // An unbounded relaxation of a node: the MILP itself is unbounded or
      // the formulation is broken; extraction LPs are always bounded.
      TENSAT_FAIL("unbounded LP relaxation in branch & bound");
    }
    if (relax.status == LpStatus::kIterLimit) {
      // Treat as unresolved: keep a conservative bound.
      explored_bound_floor = std::min(explored_bound_floor, node.parent_bound);
      exhausted = false;
      continue;
    }
    if (relax.objective >= cutoff()) {
      explored_bound_floor = std::min(explored_bound_floor, relax.objective);
      continue;
    }

    const int branch_var =
        pick_branch_var(relax.x, integer_mask, lp.objective,
                        options.branch_weight, pseudocost);

    // Diving heuristic at the root and periodically afterwards (a dive costs
    // tens of LP solves, so not at every node).
    if (branch_var >= 0 &&
        (result.nodes_explored == 1 || result.nodes_explored % 200 == 0)) {
      dive(relax.x, node_basis.empty() ? node.warm.get() : &node_basis);
    }

    // Rounding heuristic: try to turn the fractional point into a feasible
    // integer incumbent (cheap compared to the LP solve; big win when the
    // warm start is far from optimal).
    if (branch_var >= 0 && options.rounding) {
      if (auto candidate = options.rounding(relax.x)) {
        bool integral_ok = candidate->size() == static_cast<size_t>(lp.num_vars());
        for (size_t j = 0; integral_ok && j < candidate->size(); ++j) {
          if (integer_mask[j] &&
              std::abs((*candidate)[j] - std::round((*candidate)[j])) > kIntTol)
            integral_ok = false;
        }
        if (integral_ok && lp.feasible(*candidate, 1e-6)) {
          const double obj = lp.objective_value(*candidate);
          if (obj < incumbent) {
            incumbent = obj;
            result.x = *candidate;
            result.objective = obj;
            result.status = MilpStatus::kFeasible;
          }
        }
      }
    }

    if (branch_var < 0) {
      // Integral: new incumbent.
      incumbent = relax.objective;
      result.x = relax.x;
      // Snap near-integral values exactly.
      for (size_t j = 0; j < result.x.size(); ++j)
        if (integer_mask[j]) result.x[j] = std::round(result.x[j]);
      result.objective = relax.objective;
      result.status = MilpStatus::kFeasible;
      continue;
    }

    // Branch: x_j <= floor(v)  |  x_j >= ceil(v). Both children share this
    // node's optimal basis for their warm start; when this node produced no
    // basis (an artificial-carrying optimum), they inherit the ancestor's — any basis optimal for the same rows and objective stays
    // dual feasible under arbitrary bound changes.
    std::shared_ptr<const SparseBasis> child_warm =
        node_basis.empty()
            ? node.warm
            : std::make_shared<const SparseBasis>(std::move(node_basis));
    const double v = relax.x[branch_var];
    Node down = node;
    down.parent_bound = relax.objective;
    down.depth = node.depth + 1;
    down.warm = child_warm;
    down.branch_var = branch_var;
    down.branch_frac = v - std::floor(v);
    down.branch_up = false;
    down.bound_overrides.emplace_back(
        branch_var, std::make_pair(lp.lower[branch_var], std::floor(v)));
    Node up = std::move(node);
    up.parent_bound = relax.objective;
    up.depth = down.depth;
    up.warm = std::move(child_warm);
    up.branch_var = branch_var;
    up.branch_frac = std::ceil(v) - v;
    up.branch_up = true;
    up.bound_overrides.emplace_back(
        branch_var, std::make_pair(std::ceil(v), lp.upper[branch_var]));
    // Plunge toward the nearest integer — the smaller perturbation, hence
    // the cheapest dual restoration off the live basis.
    if (v - std::floor(v) <= 0.5) {
      plunge = std::move(down);
      open.push(std::move(up));
    } else {
      plunge = std::move(up);
      open.push(std::move(down));
    }
  }

  if (pseudocost.total_cnt > 0)
    result.pseudocost =
        std::make_shared<const PseudocostSnapshot>(pseudocost.snapshot());
  // Lower bound: min over open/pruned frontier (including the frontier at a
  // rel-gap stop); if the search finished with an incumbent and nothing
  // open, the incumbent is optimal.
  double frontier = std::min(explored_bound_floor, stop_frontier);
  if (!open.empty()) frontier = std::min(frontier, open.top().parent_bound);
  if (plunge.has_value()) frontier = std::min(frontier, plunge->parent_bound);
  if (result.status == MilpStatus::kFeasible) {
    if (exhausted && open.empty() && !plunge.has_value() && !gap_stop) {
      result.status = MilpStatus::kOptimal;
      result.best_bound = result.objective;
      result.gap = 0.0;
    } else {
      result.best_bound = std::min(frontier, result.objective);
      result.gap = relative_gap(result.objective, result.best_bound);
      // Within the requested gap of the proven frontier: reported optimal,
      // as MILP solvers conventionally do — but with the true bound kept,
      // so IlpExtractOptions::rel_gap terminates early WITH a certificate.
      if (gap_stop) result.status = MilpStatus::kOptimal;
    }
  } else if (open.empty() && exhausted) {
    result.status = MilpStatus::kInfeasible;
  } else {
    result.best_bound = (frontier == kInf) ? -kInf : frontier;
  }
  trace::incr("milp/bb_nodes", static_cast<int64_t>(result.nodes_explored));
  trace::incr("milp/lp_iterations", static_cast<int64_t>(result.lp_iterations));
  trace::incr("milp/warm_start_hits",
              static_cast<int64_t>(result.warm_start_hits));
  trace::incr("milp/refactorizations",
              static_cast<int64_t>(result.refactorizations));
  trace::incr("milp/cuts", static_cast<int64_t>(result.cuts));
  trace::incr("milp/gap_ppm",
              result.gap == kInf
                  ? 1000000
                  : std::llround(std::min(result.gap, 1.0) * 1e6));
  return result;
}

}  // namespace tensat
