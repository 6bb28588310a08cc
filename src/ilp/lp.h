// Linear program container shared by the sparse simplex and the
// branch-and-bound solver. Minimization form:
//
//     minimize    c . x
//     subject to  lo_r <= a_r . x <= hi_r     for every row r
//                 lower_j <= x_j <= upper_j   for every variable j
//
// Either side of a row (and either variable bound) may be infinite; a row
// with lo == hi is an equality.
#pragma once

#include <limits>
#include <utility>
#include <vector>

namespace tensat {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

struct LinearProgram {
  struct Row {
    std::vector<std::pair<int, double>> terms;  // (variable, coefficient)
    double lo{-kInf};
    double hi{kInf};
  };

  std::vector<double> objective;
  std::vector<double> lower;
  std::vector<double> upper;
  std::vector<Row> rows;

  [[nodiscard]] int num_vars() const { return static_cast<int>(objective.size()); }

  /// Adds a variable; returns its index.
  int add_var(double lo, double hi, double obj) {
    objective.push_back(obj);
    lower.push_back(lo);
    upper.push_back(hi);
    return num_vars() - 1;
  }

  void add_row(std::vector<std::pair<int, double>> terms, double lo, double hi) {
    rows.push_back(Row{std::move(terms), lo, hi});
  }

  /// a . x for a given assignment.
  [[nodiscard]] static double row_value(const Row& row, const std::vector<double>& x) {
    double v = 0.0;
    for (const auto& [j, c] : row.terms) v += c * x[j];
    return v;
  }

  /// True if `x` satisfies all rows and bounds within `tol`.
  [[nodiscard]] bool feasible(const std::vector<double>& x, double tol = 1e-6) const;

  /// c . x
  [[nodiscard]] double objective_value(const std::vector<double>& x) const;
};

enum class LpStatus { kOptimal, kInfeasible, kUnbounded, kIterLimit };

struct LpResult {
  LpStatus status{LpStatus::kIterLimit};
  double objective{0.0};
  std::vector<double> x;
  int iterations{0};
  /// Basis rebuilds across the solve.
  int refactorizations{0};
  /// True when the solve ran from a supplied warm basis without falling
  /// back to a cold start.
  bool warm{false};
};

/// Solves the LP from scratch with the bounded-variable two-phase sparse
/// revised simplex (ilp/sparse.h).
LpResult solve_lp(const LinearProgram& lp);

}  // namespace tensat
