// Sparse bounded-variable revised simplex (see sparse.h for the contract),
// plus the LinearProgram helpers and the solve_lp front door (lp.h).
//
// Internal standard form matches the dense tableau oracle in
// tests/dense_simplex.h exactly: every input row `lo <= a.x <= hi` becomes
// `a.x + s = rhs` with slack bounds encoding the range, rows with only a
// lower bound negated so the slack is always +1. Cold starts use the same
// ±1 artificials and two-phase scheme; pricing is the same
// Dantzig-with-Bland-fallback rule, so the two solvers walk comparable paths
// and agree on every status (tests/simplex_test.cpp).
//
// What differs is the linear algebra: columns live in CSC (slacks implicit),
// B^{-1} is an eta file updated per pivot and rebuilt from scratch every so
// often, and reduced costs are recomputed each iteration from y = B^{-T}c_B
// against the sparse columns — cheap because extraction matrices are >95%
// sparse, where a dense tableau pays m * n_total per pivot regardless.
#include "ilp/sparse.h"

#include <algorithm>
#include <cmath>

#include "support/check.h"

namespace tensat {

bool LinearProgram::feasible(const std::vector<double>& x, double tol) const {
  for (int j = 0; j < num_vars(); ++j)
    if (x[j] < lower[j] - tol || x[j] > upper[j] + tol) return false;
  for (const Row& r : rows) {
    const double v = row_value(r, x);
    if (v < r.lo - tol || v > r.hi + tol) return false;
  }
  return true;
}

double LinearProgram::objective_value(const std::vector<double>& x) const {
  double v = 0.0;
  for (int j = 0; j < num_vars(); ++j) v += objective[j] * x[j];
  return v;
}

namespace {

enum class VStat : uint8_t { kBasic, kAtLower, kAtUpper };

constexpr int kMaxIterations = 500000;  // per solve, all phases together
constexpr double kOptTol = 1e-7;     // reduced-cost optimality tolerance
constexpr double kPivotTol = 1e-9;   // basis factorization / pivot floor
constexpr double kPrimalFeasTol = 1e-9;  // dual simplex: bound violation floor
constexpr double kEtaDropTol = 1e-13;    // eta entries below this are noise

}  // namespace

SparseLpSolver::SparseLpSolver(const LinearProgram& lp) {
  n_ = lp.num_vars();
  obj_ = lp.objective;
  // Normalize rows: a.x + s = rhs, slack bounds encode the range.
  std::vector<std::vector<std::pair<int32_t, double>>> cols(n_);
  for (const auto& r : lp.rows) {
    if (r.lo == -kInf && r.hi == kInf) continue;
    const int32_t i = static_cast<int32_t>(rhs_.size());
    const double sign = (r.hi < kInf) ? 1.0 : -1.0;
    rhs_.push_back(sign > 0 ? r.hi : -r.lo);
    slack_hi_.push_back((r.hi < kInf && r.lo > -kInf) ? r.hi - r.lo : kInf);
    for (const auto& [j, c] : r.terms) cols[j].emplace_back(i, sign * c);
  }
  m_ = static_cast<int>(rhs_.size());
  // CSC, duplicate (row, col) entries coalesced (summed).
  col_start_.assign(n_ + 1, 0);
  for (int j = 0; j < n_; ++j) {
    auto& cv = cols[j];
    std::sort(cv.begin(), cv.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    size_t w = 0;
    for (size_t k = 0; k < cv.size(); ++k) {
      if (w > 0 && cv[w - 1].first == cv[k].first)
        cv[w - 1].second += cv[k].second;
      else
        cv[w++] = cv[k];
    }
    cv.resize(w);
    col_start_[j + 1] = col_start_[j] + static_cast<int32_t>(w);
  }
  row_ix_.reserve(col_start_[n_]);
  col_val_.reserve(col_start_[n_]);
  for (int j = 0; j < n_; ++j) {
    for (const auto& [i, c] : cols[j]) {
      row_ix_.push_back(i);
      col_val_.push_back(c);
    }
  }
}

/// Live solve state: bounds, basis, eta file. The shared CSC/rhs/objective
/// live in the SparseLpSolver; the context persists between its solve()
/// calls (rebind() re-arms it with fresh bounds) so the factorization of
/// the previous optimal basis can be reused when the next warm start names
/// exactly that basis.
class SparseSolveContext {
 public:
  SparseSolveContext(const SparseLpSolver& s, const std::vector<double>& lo,
                     const std::vector<double>& hi)
      : s_(s), n_(s.n_), m_(s.m_), nt_(s.n_ + s.m_) {
    lower_.assign(nt_, 0.0);
    upper_.assign(nt_, 0.0);
    set_bounds(lo, hi);
    stat_.assign(nt_, VStat::kAtLower);
    basis_.assign(m_, 0);
    basic_pos_.assign(nt_, -1);
    beta_.assign(m_, 0.0);
    work_.assign(m_, 0.0);
    y_.assign(m_, 0.0);
    rho_.assign(m_, 0.0);
    sigma_.resize(m_);
    for (int i = 0; i < m_; ++i) sigma_[i] = i;
    perm_buf_.assign(m_, 0.0);
  }

  /// Re-arms the context for the next solve on the same rows/objective:
  /// new bounds, artificials of the previous solve dropped, per-solve
  /// counters reset. The basis and eta file survive untouched — load_warm's
  /// fast path decides whether they can actually be reused.
  void rebind(const std::vector<double>& lo, const std::vector<double>& hi) {
    nt_ = n_ + m_;
    num_artificial_ = 0;
    art_row_.clear();
    art_sign_.clear();
    refactorizations_ = 0;
    lower_.resize(nt_);
    upper_.resize(nt_);
    stat_.resize(nt_, VStat::kAtLower);
    set_bounds(lo, hi);
  }

  void set_bounds(const std::vector<double>& lo, const std::vector<double>& hi) {
    for (int j = 0; j < n_; ++j) {
      lower_[j] = lo[j];
      upper_[j] = hi[j];
      TENSAT_CHECK(lower_[j] <= upper_[j], "variable with empty domain");
      TENSAT_CHECK(lower_[j] > -kInf || upper_[j] < kInf,
                   "free variables are not supported");
    }
    for (int i = 0; i < m_; ++i) {
      lower_[n_ + i] = 0.0;
      upper_[n_ + i] = s_.slack_hi_[i];
    }
  }

  LpResult run(const SparseBasis* warm, SparseBasis* basis_out) {
    LpResult result;
    bool warm_ok = false;
    if (warm != nullptr && !warm->empty() && load_warm(*warm)) {
      // The warm basis was optimal for the same rows and objective under
      // different bounds, so it is still dual feasible: the dual simplex
      // restores primal feasibility, then the primal pass mops up (usually
      // zero iterations). Iteration blow-up falls through to a cold start —
      // warm starts may only change speed, never the answer.
      std::vector<double> cost(nt_, 0.0);
      for (int j = 0; j < n_; ++j) cost[j] = s_.obj_[j];
      const LpStatus dual = dual_restore(cost, &result.iterations);
      if (dual == LpStatus::kOptimal) {
        const LpStatus st = optimize(cost, &result.iterations);
        if (st != LpStatus::kIterLimit) {
          result.status = st;
          warm_ok = true;
        }
      } else if (dual == LpStatus::kInfeasible) {
        // Sound certificate: the start was dual feasible, so a row with no
        // eligible entering column proves the bounds cannot be met.
        result.status = LpStatus::kInfeasible;
        warm_ok = true;
      }
    }
    if (!warm_ok) {
      cold_start();
      bool ok = true;
      if (num_artificial_ > 0) {
        std::vector<double> phase1(nt_, 0.0);
        for (int k = 0; k < num_artificial_; ++k) phase1[n_ + m_ + k] = 1.0;
        const LpStatus st = optimize(phase1, &result.iterations);
        if (st == LpStatus::kIterLimit) {
          result.status = st;
          ok = false;
        } else {
          double infeas = 0.0;
          for (int k = 0; k < num_artificial_; ++k)
            infeas += value_of(n_ + m_ + k);
          if (infeas > 1e-6) {
            result.status = LpStatus::kInfeasible;
            ok = false;
          } else {
            for (int k = 0; k < num_artificial_; ++k) upper_[n_ + m_ + k] = 0.0;
          }
        }
      }
      if (ok) {
        std::vector<double> cost(nt_, 0.0);
        for (int j = 0; j < n_; ++j) cost[j] = s_.obj_[j];
        result.status = optimize(cost, &result.iterations);
      }
    }
    result.warm = warm_ok;
    result.refactorizations = refactorizations_;
    if (result.status == LpStatus::kOptimal ||
        result.status == LpStatus::kIterLimit) {
      result.x.resize(n_);
      double obj = 0.0;
      for (int j = 0; j < n_; ++j) {
        result.x[j] = value_of(j);
        obj += s_.obj_[j] * result.x[j];
      }
      result.objective = obj;
    }
    if (basis_out != nullptr) {
      basis_out->basic.clear();
      basis_out->at_upper.clear();
      if (result.status == LpStatus::kOptimal) {
        basis_out->basic.assign(basis_.begin(), basis_.end());
        // Artificials stuck basic at level 0 (their post-phase-1 bounds are
        // [0,0]): swap each for its own row's slack — the same e_r column up
        // to sign, and that slack cannot itself be basic or B would hold
        // e_r twice and be singular. The swapped set is a genuine optimal
        // basis, so cold solves that kept an artificial still export a
        // warm-startable basis.
        for (int i = 0; i < m_; ++i) {
          if (basis_out->basic[i] >= n_ + m_) {
            const int k = basis_out->basic[i] - n_ - m_;
            basis_out->basic[i] = n_ + art_row_[k];
          }
        }
        basis_out->at_upper.assign(static_cast<size_t>(n_) + m_, 0);
        for (int j = 0; j < n_ + m_; ++j)
          basis_out->at_upper[j] = stat_[j] == VStat::kAtUpper ? 1 : 0;
      }
    }
    return result;
  }

 private:
  struct Eta {
    int32_t r;
    double pivot;
    int32_t begin;
    int32_t end;
  };

  /// Iterates the (row, value) entries of internal column j: structural
  /// columns from the CSC, slack j - n_ as +e_row, artificials as ±e_row.
  template <class F>
  void for_col(int j, F&& f) const {
    if (j < n_) {
      for (int32_t k = s_.col_start_[j]; k < s_.col_start_[j + 1]; ++k)
        f(s_.row_ix_[k], s_.col_val_[k]);
    } else if (j < n_ + m_) {
      f(j - n_, 1.0);
    } else {
      const int k = j - n_ - m_;
      f(art_row_[k], art_sign_[k]);
    }
  }

  [[nodiscard]] int col_nnz(int j) const {
    return j < n_ ? s_.col_start_[j + 1] - s_.col_start_[j] : 1;
  }

  void load_col(int j, std::vector<double>& v) const {
    std::fill(v.begin(), v.end(), 0.0);
    for_col(j, [&](int32_t i, double c) { v[i] += c; });
  }

  [[nodiscard]] double nonbasic_value(int j) const {
    return stat_[j] == VStat::kAtUpper ? upper_[j] : lower_[j];
  }

  [[nodiscard]] double value_of(int j) const {
    if (stat_[j] == VStat::kBasic) return beta_[basic_pos_[j]];
    return nonbasic_value(j);
  }

  // ---- Eta-file basis inverse -------------------------------------------
  // B^{-1} = U_k ... U_1 P^T F_l ... F_1 : refactorization builds the
  // factor etas F with partial pivoting over not-yet-pivoted rows (so any
  // nonsingular basis factors, including pure row permutations) plus the
  // permutation P; simplex pivots append update etas U on top, whose pivot
  // rows live in the outer (post-permutation) space where beta_ is indexed.
  // Applying an eta to v scales v[r] by `pivot` and adds v[r] * entry to
  // the off-pivot rows.

  void apply_eta(const Eta& e, std::vector<double>& v) const {
    const double t = v[e.r];
    if (t == 0.0) return;
    v[e.r] = t * e.pivot;
    for (int32_t k = e.begin; k < e.end; ++k) v[eta_ix_[k]] += t * eta_val_[k];
  }

  void apply_eta_t(const Eta& e, std::vector<double>& v) const {
    double acc = e.pivot * v[e.r];
    for (int32_t k = e.begin; k < e.end; ++k) acc += eta_val_[k] * v[eta_ix_[k]];
    v[e.r] = acc;
  }

  void append_eta(int r, const std::vector<double>& w) {
    Eta e;
    e.r = r;
    e.pivot = 1.0 / w[r];
    e.begin = static_cast<int32_t>(eta_ix_.size());
    for (int i = 0; i < m_; ++i) {
      if (i == r) continue;
      const double c = -w[i] * e.pivot;
      if (std::abs(c) > kEtaDropTol) {
        eta_ix_.push_back(i);
        eta_val_.push_back(c);
      }
    }
    e.end = static_cast<int32_t>(eta_ix_.size());
    etas_.push_back(e);
  }

  void ftran(std::vector<double>& v) {
    for (size_t t = 0; t < num_factor_etas_; ++t) apply_eta(etas_[t], v);
    if (!sigma_identity_) {
      for (int i = 0; i < m_; ++i) perm_buf_[i] = v[sigma_[i]];
      std::swap(v, perm_buf_);
    }
    for (size_t t = num_factor_etas_; t < etas_.size(); ++t)
      apply_eta(etas_[t], v);
  }

  void btran(std::vector<double>& v) {
    for (size_t t = etas_.size(); t > num_factor_etas_; --t)
      apply_eta_t(etas_[t - 1], v);
    if (!sigma_identity_) {
      for (int i = 0; i < m_; ++i) perm_buf_[sigma_[i]] = v[i];
      std::swap(v, perm_buf_);
    }
    for (size_t t = num_factor_etas_; t > 0; --t) apply_eta_t(etas_[t - 1], v);
  }

  /// Rebuilds the factorization from the current basis_. Unit slack columns
  /// basic at their own row contribute identity and are skipped; remaining
  /// columns are processed sparsest-first, each pivoting at the
  /// largest-magnitude entry among rows not yet claimed (smallest row index
  /// on ties — deterministic). Returns false on a numerically singular
  /// basis.
  bool refactorize() {
    factored_ = false;
    etas_.clear();
    eta_ix_.clear();
    eta_val_.clear();
    num_factor_etas_ = 0;
    sigma_identity_ = true;
    for (int i = 0; i < m_; ++i) sigma_[i] = i;
    ++refactorizations_;

    std::vector<int> pending;
    std::vector<uint8_t> row_used(m_, 0);
    for (int i = 0; i < m_; ++i) {
      if (basis_[i] == n_ + i)
        row_used[i] = 1;  // identity factor, pivot row claimed
      else
        pending.push_back(i);
    }
    std::stable_sort(pending.begin(), pending.end(), [&](int a, int b) {
      return col_nnz(basis_[a]) < col_nnz(basis_[b]);
    });
    for (int i : pending) {
      load_col(basis_[i], work_);
      for (size_t t = 0; t < etas_.size(); ++t) apply_eta(etas_[t], work_);
      int r = -1;
      double best = kPivotTol;
      for (int k = 0; k < m_; ++k) {
        if (row_used[k]) continue;
        const double mag = std::abs(work_[k]);
        if (mag > best) {
          best = mag;
          r = k;
        }
      }
      if (r < 0) return false;
      row_used[r] = 1;
      append_eta(r, work_);
      sigma_[i] = r;
      if (r != i) sigma_identity_ = false;
    }
    num_factor_etas_ = etas_.size();
    num_factor_entries_ = eta_ix_.size();
    factored_ = true;
    return true;
  }

  /// beta = B^{-1} (rhs - N x_N) for the current basis and statuses.
  void compute_beta() {
    std::vector<double>& v = beta_;
    for (int i = 0; i < m_; ++i) v[i] = s_.rhs_[i];
    for (int j = 0; j < nt_; ++j) {
      if (basic_pos_[j] >= 0) continue;
      const double xj = nonbasic_value(j);
      if (xj == 0.0) continue;
      for_col(j, [&](int32_t i, double c) { v[i] -= c * xj; });
    }
    ftran(v);
  }

  /// Counts only the update etas appended since the last refactorization —
  /// the factorization itself contributes one eta per non-slack basic column,
  /// which must not count against the rebuild budget or a large basis would
  /// refactorize on every pivot.
  [[nodiscard]] bool eta_file_large() const {
    return etas_.size() - num_factor_etas_ >= 128 ||
           eta_ix_.size() - num_factor_entries_ >=
               96 * static_cast<size_t>(m_) + 1024;
  }

  bool refactor_and_recompute() {
    if (!refactorize()) return false;
    compute_beta();
    return true;
  }

  // ---- Cold start --------------------------------------------------------
  // Same construction as the dense tableau oracle: all-slack basis; rows whose
  // initial slack value violates the slack bounds get a ±1 artificial, the
  // slack parked at its nearest bound.

  void cold_start() {
    art_row_.clear();
    art_sign_.clear();
    nt_ = n_ + m_;
    lower_.resize(nt_);
    upper_.resize(nt_);
    stat_.resize(nt_);
    for (int j = 0; j < n_; ++j) {
      if (lower_[j] == -kInf)
        stat_[j] = VStat::kAtUpper;
      else if (upper_[j] == kInf)
        stat_[j] = VStat::kAtLower;
      else
        stat_[j] = std::abs(lower_[j]) <= std::abs(upper_[j]) ? VStat::kAtLower
                                                              : VStat::kAtUpper;
    }
    for (int i = 0; i < m_; ++i) stat_[n_ + i] = VStat::kAtLower;

    std::vector<double> beta(m_);
    for (int i = 0; i < m_; ++i) beta[i] = s_.rhs_[i];
    for (int j = 0; j < n_; ++j) {
      const double xj = nonbasic_value(j);
      if (xj == 0.0) continue;
      for_col(j, [&](int32_t i, double c) { beta[i] -= c * xj; });
    }
    num_artificial_ = 0;
    for (int i = 0; i < m_; ++i) {
      if (beta[i] >= -1e-12 && beta[i] <= upper_[n_ + i] + 1e-12) {
        basis_[i] = n_ + i;
      } else {
        const double s_val = std::clamp(beta[i], 0.0, upper_[n_ + i]);
        stat_[n_ + i] = s_val == 0.0 ? VStat::kAtLower : VStat::kAtUpper;
        art_row_.push_back(i);
        art_sign_.push_back(beta[i] > upper_[n_ + i] ? 1.0 : -1.0);
        basis_[i] = n_ + m_ + num_artificial_;
        ++num_artificial_;
      }
    }
    nt_ = n_ + m_ + num_artificial_;
    lower_.resize(nt_, 0.0);
    upper_.resize(nt_, kInf);
    stat_.resize(nt_, VStat::kAtLower);
    basic_pos_.assign(nt_, -1);
    for (int i = 0; i < m_; ++i) {
      basic_pos_[basis_[i]] = i;
      stat_[basis_[i]] = VStat::kBasic;
    }
    // Diagonal (±1) basis: the factorization is m trivial etas at most.
    const bool ok = refactor_and_recompute();
    TENSAT_CHECK(ok, "singular initial basis");
  }

  bool load_warm(const SparseBasis& b) {
    if (static_cast<int>(b.basic.size()) != m_ ||
        static_cast<int>(b.at_upper.size()) != n_ + m_)
      return false;
    // Fast path test BEFORE basis_ is overwritten: does the request name
    // exactly the basis this context's previous solve ended with? Sibling
    // B&B nodes and successive dive steps do, constantly — for them the
    // existing eta file is a valid inverse and refactorization is skipped.
    bool live = factored_;
    for (int i = 0; live && i < m_; ++i) live = basis_[i] == b.basic[i];
    art_row_.clear();
    art_sign_.clear();
    num_artificial_ = 0;
    nt_ = n_ + m_;
    lower_.resize(nt_);
    upper_.resize(nt_);
    stat_.resize(nt_);
    basic_pos_.assign(nt_, -1);
    for (int j = 0; j < nt_; ++j) {
      // Rest bound from the snapshot, redirected to a finite bound if the
      // recorded side is infinite under the new bounds.
      if (b.at_upper[j] != 0)
        stat_[j] = upper_[j] < kInf ? VStat::kAtUpper : VStat::kAtLower;
      else
        stat_[j] = lower_[j] > -kInf ? VStat::kAtLower : VStat::kAtUpper;
    }
    for (int i = 0; i < m_; ++i) {
      const int32_t j = b.basic[i];
      if (j < 0 || j >= nt_ || basic_pos_[j] >= 0) return false;
      basis_[i] = j;
      basic_pos_[j] = i;
      stat_[j] = VStat::kBasic;
    }
    // A long eta file still forces a rebuild: reuse must not let update
    // etas (and their rounding error) accumulate across solves unbounded.
    if (!live || eta_file_large()) {
      if (!refactorize()) return false;
    }
    compute_beta();
    return true;
  }

  // ---- Primal simplex ----------------------------------------------------
  // Same pricing and ratio test as the dense tableau oracle; reduced costs are
  // recomputed from y = B^{-T} c_B against the sparse columns instead of
  // being carried in a tableau row.

  LpStatus optimize(const std::vector<double>& cost, int* iterations) {
    int degenerate_run = 0;
    int numeric_retries = 0;
    while (true) {
      if (++*iterations > kMaxIterations) return LpStatus::kIterLimit;
      if (eta_file_large() && !refactor_and_recompute())
        return LpStatus::kIterLimit;
      for (int i = 0; i < m_; ++i) y_[i] = cost[basis_[i]];
      btran(y_);
      const bool bland = degenerate_run > 2 * (m_ + nt_);

      // ---- Pricing: pick an entering variable ----
      int q = -1;
      double best = -kOptTol;
      int dir = 0;  // +1 entering increases, -1 decreases
      for (int j = 0; j < nt_; ++j) {
        if (basic_pos_[j] >= 0) continue;
        if (lower_[j] == upper_[j]) continue;  // fixed
        double rj = cost[j];
        for_col(j, [&](int32_t i, double c) { rj -= y_[i] * c; });
        double score = 0.0;
        int d = 0;
        if (stat_[j] == VStat::kAtLower && rj < -kOptTol) {
          score = rj;
          d = +1;
        } else if (stat_[j] == VStat::kAtUpper && rj > kOptTol) {
          score = -rj;
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

      // ---- Ratio test (identical to the dense tableau oracle's) ----
      load_col(q, work_);
      ftran(work_);
      double limit = upper_[q] - lower_[q];  // bound-flip distance
      int leave = -1;
      bool leave_to_upper = false;
      for (int i = 0; i < m_; ++i) {
        const double rate = -work_[i] * dir;  // d beta_i / d step
        if (std::abs(rate) < 1e-11) continue;
        const int bj = basis_[i];
        double room;
        bool to_upper;
        if (rate > 0) {
          if (upper_[bj] == kInf) continue;
          room = (upper_[bj] - beta_[i]) / rate;
          to_upper = true;
        } else {
          if (lower_[bj] == -kInf) continue;
          room = (lower_[bj] - beta_[i]) / rate;
          to_upper = false;
        }
        room = std::max(room, 0.0);
        if (room < limit - 1e-12 ||
            (bland && leave >= 0 && room < limit + 1e-12 &&
             bj < basis_[leave])) {
          limit = room;
          leave = i;
          leave_to_upper = to_upper;
        }
      }
      if (limit == kInf) return LpStatus::kUnbounded;
      degenerate_run = limit < 1e-10 ? degenerate_run + 1 : 0;

      const double step = limit * dir;
      if (leave < 0) {
        // Bound flip: entering crosses to its other bound; no basis change.
        for (int i = 0; i < m_; ++i) beta_[i] -= work_[i] * step;
        stat_[q] =
            stat_[q] == VStat::kAtLower ? VStat::kAtUpper : VStat::kAtLower;
        continue;
      }
      if (std::abs(work_[leave]) <= kPivotTol) {
        // Eta file has drifted: rebuild it and redo this iteration.
        if (++numeric_retries > 5 || !refactor_and_recompute())
          return LpStatus::kIterLimit;
        continue;
      }
      numeric_retries = 0;
      for (int i = 0; i < m_; ++i) beta_[i] -= work_[i] * step;
      const double enter_value =
          (stat_[q] == VStat::kAtLower ? lower_[q] : upper_[q]) + step;
      const int out = basis_[leave];
      stat_[out] = leave_to_upper ? VStat::kAtUpper : VStat::kAtLower;
      basic_pos_[out] = -1;
      append_eta(leave, work_);
      basis_[leave] = q;
      beta_[leave] = enter_value;
      stat_[q] = VStat::kBasic;
      basic_pos_[q] = leave;
    }
  }

  // ---- Dual simplex ------------------------------------------------------
  // Restores primal feasibility from a dual-feasible basis (the warm-start
  // case: an optimal basis whose bounds were then changed). Leaving row =
  // worst bound violation; entering column = textbook bounded-variable dual
  // ratio test, min ratio with smallest-index tie-break (deterministic).
  // Returns kOptimal when primal feasible, kInfeasible on a certified empty
  // node, kIterLimit when the caller should cold-start instead.

  LpStatus dual_restore(const std::vector<double>& cost, int* iterations) {
    int guard = 0;
    int numeric_retries = 0;
    const int max_dual = 4 * (m_ + nt_) + 1000;
    while (true) {
      if (++*iterations > kMaxIterations) return LpStatus::kIterLimit;
      if (++guard > max_dual) return LpStatus::kIterLimit;
      if (eta_file_large() && !refactor_and_recompute())
        return LpStatus::kIterLimit;

      int r = -1;
      double worst = kPrimalFeasTol;
      double sgn = 0.0;  // +1: beta above upper, -1: below lower
      for (int i = 0; i < m_; ++i) {
        const int bj = basis_[i];
        const double over = beta_[i] - upper_[bj];
        const double under = lower_[bj] - beta_[i];
        if (over > worst) {
          worst = over;
          r = i;
          sgn = 1.0;
        }
        if (under > worst) {
          worst = under;
          r = i;
          sgn = -1.0;
        }
      }
      if (r < 0) return LpStatus::kOptimal;  // primal feasible

      std::fill(rho_.begin(), rho_.end(), 0.0);
      rho_[r] = 1.0;
      btran(rho_);
      for (int i = 0; i < m_; ++i) y_[i] = cost[basis_[i]];
      btran(y_);

      int q = -1;
      double best_ratio = kInf;
      for (int j = 0; j < nt_; ++j) {
        if (basic_pos_[j] >= 0) continue;
        if (lower_[j] == upper_[j]) continue;
        double alpha = 0.0;
        double rj = cost[j];
        for_col(j, [&](int32_t i, double c) {
          alpha += rho_[i] * c;
          rj -= y_[i] * c;
        });
        const double d = sgn * alpha;
        double ratio;
        if (stat_[j] == VStat::kAtLower && d > kPivotTol)
          ratio = std::max(rj, 0.0) / d;
        else if (stat_[j] == VStat::kAtUpper && d < -kPivotTol)
          ratio = std::min(rj, 0.0) / d;
        else
          continue;
        if (ratio < best_ratio) {  // ascending j: ties keep the smallest index
          best_ratio = ratio;
          q = j;
        }
      }
      if (q < 0) return LpStatus::kInfeasible;

      load_col(q, work_);
      ftran(work_);
      if (std::abs(work_[r]) <= kPivotTol) {
        if (++numeric_retries > 5 || !refactor_and_recompute())
          return LpStatus::kIterLimit;
        continue;
      }
      numeric_retries = 0;
      const int out = basis_[r];
      const double target = sgn > 0 ? upper_[out] : lower_[out];
      const double t = (beta_[r] - target) / work_[r];
      for (int i = 0; i < m_; ++i) beta_[i] -= work_[i] * t;
      const double enter_value = nonbasic_value(q) + t;
      stat_[out] = sgn > 0 ? VStat::kAtUpper : VStat::kAtLower;
      basic_pos_[out] = -1;
      append_eta(r, work_);
      basis_[r] = q;
      beta_[r] = enter_value;
      stat_[q] = VStat::kBasic;
      basic_pos_[q] = r;
    }
  }

  const SparseLpSolver& s_;
  int n_, m_, nt_;
  int num_artificial_{0};
  int refactorizations_{0};
  std::vector<int32_t> art_row_;
  std::vector<double> art_sign_;
  std::vector<double> lower_, upper_;
  std::vector<VStat> stat_;
  std::vector<int32_t> basis_;      // basic column per row
  std::vector<int32_t> basic_pos_;  // column -> row, -1 when nonbasic
  std::vector<double> beta_;        // values of basic variables, by row
  std::vector<Eta> etas_;
  std::vector<int32_t> eta_ix_;
  std::vector<double> eta_val_;
  size_t num_factor_etas_{0};     // etas_[0..) from refactorize; rest updates
  size_t num_factor_entries_{0};  // eta_ix_ prefix owned by the factorization
  std::vector<int32_t> sigma_;    // outer row i <- factor pivot row sigma_[i]
  bool sigma_identity_{true};
  bool factored_{false};  // etas_ is a valid inverse of the current basis_
  std::vector<double> perm_buf_;
  std::vector<double> work_, y_, rho_;
};

LpResult SparseLpSolver::solve(const std::vector<double>& lower,
                               const std::vector<double>& upper,
                               const SparseBasis* warm,
                               SparseBasis* basis_out) {
  TENSAT_CHECK(static_cast<int>(lower.size()) == n_ &&
                   static_cast<int>(upper.size()) == n_,
               "bound vector size mismatch");
  if (ctx_ == nullptr)
    ctx_ = std::make_unique<SparseSolveContext>(*this, lower, upper);
  else
    ctx_->rebind(lower, upper);
  return ctx_->run(warm, basis_out);
}

SparseLpSolver::~SparseLpSolver() = default;

LpResult solve_lp(const LinearProgram& lp) {
  SparseLpSolver solver(lp);
  return solver.solve(lp.lower, lp.upper);
}

}  // namespace tensat
