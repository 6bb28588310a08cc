// Dense bounded-variable two-phase primal simplex, the independent LP oracle
// for the sparse revised simplex (src/ilp/sparse.h). It shares the sparse
// solver's standard form, artificials and pricing rule, but none of its
// linear algebra (no factorization, no eta file, no warm starts), so
// agreement between the two is evidence about the sparse solver's numerics.
//
// Internal standard form: every input row `lo <= a.x <= hi` becomes
// `a.x + s = rhs` with a slack variable s whose bounds encode the range
// (see build()). Rows whose initial slack value violates the slack
// bounds get a +/-1 artificial variable; phase 1 minimizes the sum of
// artificials, phase 2 the true objective with artificials pinned to zero.
//
// Anti-cycling: Dantzig pricing normally, switching to Bland's rule after a
// run of degenerate pivots.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "ilp/lp.h"
#include "support/check.h"

namespace tensat::dense_oracle {

inline constexpr int kMaxIterations = 500000;
inline constexpr double kTol = 1e-7;

enum class VStat : uint8_t { kBasic, kAtLower, kAtUpper };

class Simplex {
 public:
  explicit Simplex(const LinearProgram& lp) { build(lp); }

  LpResult run(const LinearProgram& lp) {
    LpResult result;
    // ---- Phase 1: drive artificials to zero ----
    if (num_artificial_ > 0) {
      std::vector<double> phase1_cost(nt_, 0.0);
      for (int j = nt_ - num_artificial_; j < nt_; ++j) phase1_cost[j] = 1.0;
      const LpStatus st = optimize(phase1_cost, &result.iterations);
      if (st == LpStatus::kIterLimit) {
        result.status = st;
        return result;
      }
      double infeas = 0.0;
      for (int j = nt_ - num_artificial_; j < nt_; ++j) infeas += value_of(j);
      if (infeas > 1e-6) {
        result.status = LpStatus::kInfeasible;
        return result;
      }
      // Pin artificials at zero for phase 2.
      for (int j = nt_ - num_artificial_; j < nt_; ++j) upper_[j] = 0.0;
    }
    // ---- Phase 2: the real objective ----
    std::vector<double> cost(nt_, 0.0);
    for (int j = 0; j < n_; ++j) cost[j] = lp.objective[j];
    const LpStatus st = optimize(cost, &result.iterations);
    result.status = st;
    if (st == LpStatus::kOptimal || st == LpStatus::kIterLimit) {
      result.x.resize(n_);
      for (int j = 0; j < n_; ++j) result.x[j] = value_of(j);
      result.objective = lp.objective_value(result.x);
    }
    return result;
  }

 private:
  double* row(int i) { return &tab_[static_cast<size_t>(i) * nt_]; }

  [[nodiscard]] double value_of(int j) const {
    if (stat_[j] == VStat::kAtLower) return lower_[j];
    if (stat_[j] == VStat::kAtUpper) return upper_[j];
    for (int i = 0; i < m_; ++i)
      if (basis_[i] == j) return beta_[i];
    TENSAT_FAIL("basic variable not found");
  }

  void build(const LinearProgram& lp) {
    n_ = lp.num_vars();
    // Normalize rows: a.x + s = rhs, slack bounds encode the range. Rows
    // with only a lower bound are negated so the slack is always +1.
    struct NormRow {
      std::vector<std::pair<int, double>> terms;
      double rhs;
      double s_hi;  // slack in [0, s_hi]
    };
    std::vector<NormRow> norm;
    for (const auto& r : lp.rows) {
      if (r.lo == -kInf && r.hi == kInf) continue;
      NormRow nr;
      if (r.hi < kInf) {
        nr.terms = r.terms;
        nr.rhs = r.hi;
        nr.s_hi = (r.lo == -kInf) ? kInf : r.hi - r.lo;
      } else {
        nr.terms = r.terms;
        for (auto& [j, c] : nr.terms) c = -c;
        nr.rhs = -r.lo;
        nr.s_hi = kInf;
      }
      norm.push_back(std::move(nr));
    }
    m_ = static_cast<int>(norm.size());

    // Columns: structural | slacks | artificials (added below as needed).
    const int slack0 = n_;
    lower_.assign(n_ + m_, 0.0);
    upper_.assign(n_ + m_, 0.0);
    stat_.assign(n_ + m_, VStat::kAtLower);
    for (int j = 0; j < n_; ++j) {
      lower_[j] = lp.lower[j];
      upper_[j] = lp.upper[j];
      TENSAT_CHECK(lower_[j] <= upper_[j], "variable with empty domain");
      TENSAT_CHECK(lower_[j] > -kInf || upper_[j] < kInf,
                   "free variables are not supported");
      // Nonbasic at the finite bound nearest zero.
      if (lower_[j] == -kInf)
        stat_[j] = VStat::kAtUpper;
      else if (upper_[j] == kInf)
        stat_[j] = VStat::kAtLower;
      else
        stat_[j] = (std::abs(lower_[j]) <= std::abs(upper_[j])) ? VStat::kAtLower
                                                                : VStat::kAtUpper;
    }
    for (int i = 0; i < m_; ++i) {
      lower_[slack0 + i] = 0.0;
      upper_[slack0 + i] = norm[i].s_hi;
    }

    // Initial basic values with the all-slack basis.
    std::vector<double> beta(m_);
    for (int i = 0; i < m_; ++i) {
      double v = norm[i].rhs;
      for (const auto& [j, c] : norm[i].terms) {
        const double xj = (stat_[j] == VStat::kAtLower) ? lower_[j] : upper_[j];
        v -= c * xj;
      }
      beta[i] = v;
    }

    // Decide basis per row: slack if its value fits its bounds, else an
    // artificial carrying the residual (sign chosen so it starts >= 0).
    basis_.resize(m_);
    std::vector<double> art_sign(m_, 0.0);
    num_artificial_ = 0;
    std::vector<int> art_col(m_, -1);
    for (int i = 0; i < m_; ++i) {
      if (beta[i] >= -1e-12 && beta[i] <= upper_[slack0 + i] + 1e-12) {
        basis_[i] = slack0 + i;
      } else {
        art_sign[i] = (beta[i] > upper_[slack0 + i]) ? 1.0 : -1.0;
        art_col[i] = n_ + m_ + num_artificial_;
        ++num_artificial_;
      }
    }
    nt_ = n_ + m_ + num_artificial_;
    lower_.resize(nt_, 0.0);
    upper_.resize(nt_, kInf);
    stat_.resize(nt_, VStat::kAtLower);

    // Dense tableau T = B^{-1} A with B diagonal (+1 slack / ±1 artificial).
    tab_.assign(static_cast<size_t>(m_) * nt_, 0.0);
    beta_.assign(m_, 0.0);
    for (int i = 0; i < m_; ++i) {
      double* t = row(i);
      for (const auto& [j, c] : norm[i].terms) t[j] += c;
      t[slack0 + i] = 1.0;
      if (art_col[i] < 0) {
        basis_[i] = slack0 + i;
        beta_[i] = beta[i];
      } else {
        // Slack becomes nonbasic at its nearest bound; the artificial takes
        // the (positive) residual. Row scaled by the artificial's sign so
        // the basis column is +1.
        const double s_val = std::clamp(beta[i], 0.0, upper_[slack0 + i]);
        stat_[slack0 + i] = (s_val == 0.0) ? VStat::kAtLower : VStat::kAtUpper;
        t[art_col[i]] = 1.0;
        if (art_sign[i] < 0) {
          for (int j = 0; j < nt_; ++j)
            if (j != art_col[i]) t[j] = -t[j];
        }
        basis_[i] = art_col[i];
        beta_[i] = std::abs(beta[i] - s_val);
      }
    }
    for (int i = 0; i < m_; ++i) stat_[basis_[i]] = VStat::kBasic;
  }

  /// Primal simplex iterations for the given cost vector, starting from the
  /// current basis. Updates *iterations cumulatively.
  LpStatus optimize(const std::vector<double>& cost, int* iterations) {
    // Reduced-cost row: r_j = c_j - c_B . T_j.
    std::vector<double> r(cost);
    for (int i = 0; i < m_; ++i) {
      const double cb = cost[basis_[i]];
      if (cb == 0.0) continue;
      const double* t = row(i);
      for (int j = 0; j < nt_; ++j) r[j] -= cb * t[j];
    }
    std::vector<bool> in_basis(nt_, false);
    for (int i = 0; i < m_; ++i) in_basis[basis_[i]] = true;

    int degenerate_run = 0;
    while (true) {
      if (++*iterations > kMaxIterations) return LpStatus::kIterLimit;
      const bool bland = degenerate_run > 2 * (m_ + nt_);

      // ---- Pricing: pick an entering variable ----
      int q = -1;
      double best = -kTol;
      int dir = 0;  // +1 entering increases, -1 decreases
      for (int j = 0; j < nt_; ++j) {
        if (in_basis[j]) continue;
        if (lower_[j] == upper_[j]) continue;  // fixed
        double score = 0.0;
        int d = 0;
        if (stat_[j] == VStat::kAtLower && r[j] < -kTol) {
          score = r[j];
          d = +1;
        } else if (stat_[j] == VStat::kAtUpper && r[j] > kTol) {
          score = -r[j];
          d = -1;
        } else {
          continue;
        }
        if (bland) {  // first eligible index
          q = j;
          dir = d;
          break;
        }
        if (score < best) {
          best = score;
          q = j;
          dir = d;
        }
      }
      if (q < 0) return LpStatus::kOptimal;

      // ---- Ratio test ----
      // Entering moves by step >= 0 in direction `dir`; basic values move by
      // -T_iq * dir * step. Limits: the entering variable's own opposite
      // bound, and each basic variable hitting one of its bounds.
      double limit = upper_[q] - lower_[q];  // bound-flip distance (may be inf)
      int leave = -1;                        // row index of leaving basic var
      bool leave_to_upper = false;
      for (int i = 0; i < m_; ++i) {
        const double tiq = row(i)[q];
        const double rate = -tiq * dir;  // d beta_i / d step
        if (std::abs(rate) < 1e-11) continue;
        const int bj = basis_[i];
        double room;
        bool to_upper;
        if (rate > 0) {  // beta_i increases toward its upper bound
          if (upper_[bj] == kInf) continue;
          room = (upper_[bj] - beta_[i]) / rate;
          to_upper = true;
        } else {  // beta_i decreases toward its lower bound
          if (lower_[bj] == -kInf) continue;
          room = (lower_[bj] - beta_[i]) / rate;
          to_upper = false;
        }
        room = std::max(room, 0.0);
        if (room < limit - 1e-12 ||
            (bland && leave >= 0 && room < limit + 1e-12 && bj < basis_[leave])) {
          limit = room;
          leave = i;
          leave_to_upper = to_upper;
        }
      }
      if (limit == kInf) return LpStatus::kUnbounded;
      degenerate_run = (limit < 1e-10) ? degenerate_run + 1 : 0;

      // ---- Apply the step ----
      if (leave < 0) {
        // Bound flip: entering var crosses to its other bound; no basis change.
        const double step = limit * dir;
        for (int i = 0; i < m_; ++i) beta_[i] -= row(i)[q] * step;
        stat_[q] = (stat_[q] == VStat::kAtLower) ? VStat::kAtUpper : VStat::kAtLower;
        continue;
      }

      // Pivot: q enters the basis at row `leave`; basis_[leave] leaves to
      // the bound it hit.
      const double step = limit * dir;
      for (int i = 0; i < m_; ++i) beta_[i] -= row(i)[q] * step;
      const double enter_value =
          ((stat_[q] == VStat::kAtLower) ? lower_[q] : upper_[q]) + step;
      const int out = basis_[leave];
      stat_[out] = leave_to_upper ? VStat::kAtUpper : VStat::kAtLower;
      in_basis[out] = false;

      double* prow = row(leave);
      const double pivot = prow[q];
      TENSAT_CHECK(std::abs(pivot) > 1e-11, "numerically singular pivot");
      const double inv = 1.0 / pivot;
      for (int j = 0; j < nt_; ++j) prow[j] *= inv;
      beta_[leave] = enter_value;  // after normalization, row represents x_q
      for (int i = 0; i < m_; ++i) {
        if (i == leave) continue;
        double* t = row(i);
        const double factor = t[q];
        if (factor == 0.0) continue;
        for (int j = 0; j < nt_; ++j) t[j] -= factor * prow[j];
      }
      const double rq = r[q];
      if (rq != 0.0) {
        for (int j = 0; j < nt_; ++j) r[j] -= rq * prow[j];
      }
      basis_[leave] = q;
      stat_[q] = VStat::kBasic;
      in_basis[q] = true;
    }
  }

  int n_{0};              // structural variables
  int m_{0};              // rows
  int nt_{0};             // total columns
  int num_artificial_{0};
  std::vector<double> tab_;
  std::vector<double> beta_;   // values of basic variables, by row
  std::vector<int> basis_;     // basic variable per row
  std::vector<double> lower_, upper_;
  std::vector<VStat> stat_;
};

/// Solves `lp` from scratch with the dense tableau.
inline LpResult solve_lp_dense(const LinearProgram& lp) {
  Simplex solver(lp);
  return solver.run(lp);
}

}  // namespace tensat::dense_oracle
