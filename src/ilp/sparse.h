// Sparse bounded-variable revised simplex. The constraint matrix is stored
// once in compressed-sparse-column form (structural columns only; slack
// columns are implicit unit vectors) and the basis inverse is kept as an
// eta file (product form of the inverse) with periodic refactorization.
//
// The solver object is persistent: it is built once from a LinearProgram and
// can then be re-solved many times with different VARIABLE bounds — exactly
// the branch-and-bound access pattern, where every node of the tree shares
// the root's rows and objective and differs only in bound overrides. Row
// ranges and the objective are frozen at construction.
//
// Warm starts: solve() optionally takes the basis of a previous (optimal)
// solve. Since bound changes leave reduced costs untouched, the old basis is
// still dual feasible, so a bounded-variable dual simplex restores primal
// feasibility in a handful of pivots instead of a from-scratch two-phase
// solve. Any numerical trouble on the warm path (singular refactorization,
// iteration blow-up) falls back to a cold start, so warm starts can only
// change speed, never the answer.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ilp/lp.h"

namespace tensat {

class SparseSolveContext;

/// Basis snapshot in the solver's internal column space: structural columns
/// first, then one slack per normalized row. Valid for any SparseLpSolver
/// built from a LinearProgram with the same rows/objective (bounds may
/// differ — that is the point). Artificial columns are never recorded; a
/// solve whose optimal basis still contains an artificial emits no basis.
struct SparseBasis {
  std::vector<int32_t> basic;     // per normalized row: basic column
  std::vector<uint8_t> at_upper;  // per column: nonbasic rest bound (1 = upper)
  [[nodiscard]] bool empty() const { return basic.empty(); }
};

class SparseLpSolver {
 public:
  /// Captures rows and objective; lp's bounds are NOT captured (they are
  /// passed to every solve). Free variables are rejected.
  explicit SparseLpSolver(const LinearProgram& lp);
  ~SparseLpSolver();
  // Non-copyable and non-movable: the live solve context keeps a reference
  // back to this solver.
  SparseLpSolver(const SparseLpSolver&) = delete;
  SparseLpSolver& operator=(const SparseLpSolver&) = delete;

  /// Solves min c.x subject to the captured rows and the given variable
  /// bounds. `warm`, if non-null and non-empty, seeds the basis (dual
  /// simplex restoration); `basis_out`, if non-null, receives the optimal
  /// basis (cleared when the solve did not end kOptimal or the basis still
  /// contains an artificial). result.warm reports whether the warm basis
  /// was actually used; result.refactorizations counts basis rebuilds.
  ///
  /// The factorization persists across calls: when `warm` names exactly the
  /// basis the previous solve on this object ended with (sibling B&B nodes,
  /// successive dive steps), the eta file is reused and the rebuild is
  /// skipped entirely — the dominant per-node cost in a warm-started tree.
  LpResult solve(const std::vector<double>& lower,
                 const std::vector<double>& upper,
                 const SparseBasis* warm = nullptr,
                 SparseBasis* basis_out = nullptr);

  [[nodiscard]] int num_vars() const { return n_; }
  [[nodiscard]] int num_rows() const { return m_; }

 private:
  friend class SparseSolveContext;

  int n_{0};  // structural variables
  int m_{0};  // normalized rows

  // CSC of the normalized structural columns (slacks are implicit e_i).
  std::vector<int32_t> col_start_;  // size n_ + 1
  std::vector<int32_t> row_ix_;
  std::vector<double> col_val_;

  std::vector<double> obj_;       // structural objective
  std::vector<double> rhs_;       // normalized row rhs
  std::vector<double> slack_hi_;  // slack upper bound per row (lower is 0)

  // Live solve state (basis, eta file), kept between solve() calls so a
  // matching warm basis skips refactorization. Lazily created.
  std::unique_ptr<SparseSolveContext> ctx_;
};

}  // namespace tensat
