// Differential tests for the sparse revised simplex behind solve_lp
// (ilp/sparse.h) against the dense bounded-variable tableau oracle
// (tests/dense_simplex.h). Every named scenario — degenerate cycling, range
// rows with both bounds active, infeasibility, unboundedness — runs against
// both solvers; a randomized sweep pins status and objective parity; the
// warm-start suite drives SparseLpSolver's basis reuse directly.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "ilp/lp.h"
#include "ilp/sparse.h"
#include "support/rng.h"
#include "tests/dense_simplex.h"

namespace tensat {
namespace {

using dense_oracle::solve_lp_dense;

/// Parameter: true = the sparse solver (solve_lp), false = the dense oracle.
class SimplexPath : public ::testing::TestWithParam<bool> {
 protected:
  [[nodiscard]] LpResult solve(const LinearProgram& lp) const {
    return GetParam() ? solve_lp(lp) : solve_lp_dense(lp);
  }
};

INSTANTIATE_TEST_SUITE_P(DenseAndSparse, SimplexPath, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? std::string("sparse")
                                             : std::string("dense");
                         });

TEST_P(SimplexPath, BealeCyclingExampleTerminates) {
  // Beale's classic cycling instance: Dantzig pricing with a naive ratio
  // test cycles forever at the degenerate origin vertex; the Bland fallback
  // must kick in and reach the optimum z* = -1/20 at x = (1/25, 0, 1, 0).
  LinearProgram lp;
  lp.add_var(0, kInf, -0.75);
  lp.add_var(0, kInf, 150.0);
  lp.add_var(0, kInf, -0.02);
  lp.add_var(0, kInf, 6.0);
  lp.add_row({{0, 0.25}, {1, -60.0}, {2, -0.04}, {3, 9.0}}, -kInf, 0.0);
  lp.add_row({{0, 0.5}, {1, -90.0}, {2, -0.02}, {3, 3.0}}, -kInf, 0.0);
  lp.add_row({{2, 1.0}}, -kInf, 1.0);
  const LpResult r = solve(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, -0.05, 1e-9);
  EXPECT_NEAR(r.x[0], 0.04, 1e-9);
  EXPECT_NEAR(r.x[2], 1.0, 1e-9);
}

TEST_P(SimplexPath, HighlyDegenerateVertexTerminates) {
  // Many redundant rows through one vertex: every pivot at the vertex is
  // degenerate, exercising the Dantzig -> Bland switch.
  LinearProgram lp;
  lp.add_var(0, kInf, -1.0);
  lp.add_var(0, kInf, -1.0);
  lp.add_var(0, kInf, -1.0);
  for (int k = 0; k < 6; ++k)
    lp.add_row({{0, 1.0}, {1, 1.0}, {2, 1.0}}, -kInf, 3.0);
  lp.add_row({{0, 1.0}}, -kInf, 1.0);
  lp.add_row({{1, 1.0}}, -kInf, 1.0);
  lp.add_row({{2, 1.0}}, -kInf, 1.0);
  const LpResult r = solve(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, -3.0, 1e-9);
}

TEST_P(SimplexPath, RangeRowActiveAtEitherBound) {
  // One range row 1 <= x + y <= 2: minimizing x drives it to its lower
  // bound, maximizing x to its upper — the same slack variable lands on
  // each of its two finite bounds.
  LinearProgram lo_side;
  lo_side.add_var(0, kInf, 1.0);
  lo_side.add_var(0, 0.5, 0.0);
  lo_side.add_row({{0, 1.0}, {1, 1.0}}, 1.0, 2.0);
  const LpResult at_lo = solve(lo_side);
  ASSERT_EQ(at_lo.status, LpStatus::kOptimal);
  EXPECT_NEAR(at_lo.objective, 0.5, 1e-9);

  LinearProgram hi_side = lo_side;
  hi_side.objective[0] = -1.0;  // maximize x instead
  const LpResult at_hi = solve(hi_side);
  ASSERT_EQ(at_hi.status, LpStatus::kOptimal);
  EXPECT_NEAR(at_hi.objective, -2.0, 1e-9);
  EXPECT_NEAR(at_hi.x[0] + at_hi.x[1], 2.0, 1e-9);
}

TEST_P(SimplexPath, RangeRowsBothBoundsActiveSimultaneously) {
  // Two range rows pinned at opposite bounds in one unique optimum:
  // min x - 2y, 1 <= x + y <= 2 (upper active), 0 <= x - y <= 1 (lower
  // active) -> x = y = 1, objective -1.
  LinearProgram lp;
  lp.add_var(0, kInf, 1.0);
  lp.add_var(0, 1.0, -2.0);
  lp.add_row({{0, 1.0}, {1, 1.0}}, 1.0, 2.0);
  lp.add_row({{0, 1.0}, {1, -1.0}}, 0.0, 1.0);
  const LpResult r = solve(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, -1.0, 1e-9);
  EXPECT_NEAR(r.x[0], 1.0, 1e-9);
  EXPECT_NEAR(r.x[1], 1.0, 1e-9);
}

TEST_P(SimplexPath, InfeasibleRowVsBounds) {
  // x + y >= 5 with x, y in [0, 1].
  LinearProgram lp;
  lp.add_var(0, 1, 1.0);
  lp.add_var(0, 1, 1.0);
  lp.add_row({{0, 1.0}, {1, 1.0}}, 5.0, kInf);
  EXPECT_EQ(solve(lp).status, LpStatus::kInfeasible);
}

TEST_P(SimplexPath, InfeasibleEqualityPair) {
  LinearProgram lp;
  lp.add_var(0, kInf, 0.0);
  lp.add_var(0, kInf, 0.0);
  lp.add_row({{0, 1.0}, {1, 1.0}}, 1.0, 1.0);
  lp.add_row({{0, 1.0}, {1, 1.0}}, 2.0, 2.0);
  EXPECT_EQ(solve(lp).status, LpStatus::kInfeasible);
}

TEST_P(SimplexPath, DetectsUnbounded) {
  // min -x - y with only x + y >= 1 below: no finite optimum.
  LinearProgram lp;
  lp.add_var(0, kInf, -1.0);
  lp.add_var(0, kInf, -1.0);
  lp.add_row({{0, 1.0}, {1, 1.0}}, 1.0, kInf);
  EXPECT_EQ(solve(lp).status, LpStatus::kUnbounded);
}

TEST_P(SimplexPath, NegativeLowerBounds) {
  // General (non-[0,1]) bounds: min x + y, x in [-3, 5], y in [-2, 2],
  // x + y >= -4 -> the row binds at -4.
  LinearProgram lp;
  lp.add_var(-3, 5, 1.0);
  lp.add_var(-2, 2, 1.0);
  lp.add_row({{0, 1.0}, {1, 1.0}}, -4.0, kInf);
  const LpResult r = solve(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, -4.0, 1e-9);
}

// Randomized differential sweep: dense and sparse must agree on status and,
// when optimal, on the objective (vertex ties permit different x).
TEST(SimplexDifferential, RandomDenseSparseParity) {
  Rng rng(77);
  for (int trial = 0; trial < 400; ++trial) {
    const int n = 2 + static_cast<int>(rng.below(8));
    const int m = 1 + static_cast<int>(rng.below(8));
    LinearProgram lp;
    for (int j = 0; j < n; ++j) {
      const double lo = rng.uniform(-2.0, 0.5);
      lp.add_var(lo, lo + rng.uniform(0.0, 3.0), rng.uniform(-2.0, 2.0));
    }
    for (int r = 0; r < m; ++r) {
      LinearProgram::Row row;
      const int terms = 1 + static_cast<int>(rng.below(4));
      for (int t = 0; t < terms; ++t)
        row.terms.emplace_back(static_cast<int>(rng.below(n)),
                               rng.uniform(-2.0, 2.0));
      switch (rng.below(4)) {
        case 0:  // <=
          row.lo = -kInf;
          row.hi = rng.uniform(-1.0, 3.0);
          break;
        case 1:  // >=
          row.lo = rng.uniform(-3.0, 1.0);
          row.hi = kInf;
          break;
        case 2:  // equality
          row.lo = row.hi = rng.uniform(-1.0, 1.0);
          break;
        default:  // range
          row.lo = rng.uniform(-2.0, 0.0);
          row.hi = row.lo + rng.uniform(0.0, 2.0);
          break;
      }
      lp.rows.push_back(row);
    }
    const LpResult dense = solve_lp_dense(lp);
    const LpResult sparse = solve_lp(lp);
    ASSERT_EQ(dense.status, sparse.status) << "trial " << trial;
    if (dense.status == LpStatus::kOptimal) {
      EXPECT_NEAR(dense.objective, sparse.objective,
                  1e-6 * (1.0 + std::abs(dense.objective)))
          << "trial " << trial;
      EXPECT_TRUE(lp.feasible(sparse.x, 1e-5)) << "trial " << trial;
    }
  }
}

// ---- SparseLpSolver warm starts (the B&B re-solve path) -------------------

LinearProgram extraction_shaped_lp() {
  // A small extraction-shaped MILP relaxation: 3 classes x 2 options with
  // cover rows, enough structure for a nontrivial basis.
  LinearProgram lp;
  for (int j = 0; j < 6; ++j) lp.add_var(0, 1, 1.0 + 0.5 * j);
  lp.add_row({{0, 1.0}, {1, 1.0}}, 1.0, 1.0);  // root class picks one
  lp.add_row({{0, 1.0}, {2, -1.0}, {3, -1.0}}, -kInf, 0.0);
  lp.add_row({{1, 1.0}, {4, -1.0}, {5, -1.0}}, -kInf, 0.0);
  lp.add_row({{2, 1.0}, {3, 1.0}}, -kInf, 1.0);
  lp.add_row({{4, 1.0}, {5, 1.0}}, -kInf, 1.0);
  return lp;
}

TEST(SparseWarmStart, BoundFlipRestoredByDualSimplex) {
  const LinearProgram lp = extraction_shaped_lp();
  SparseLpSolver solver(lp);
  SparseBasis basis;
  const LpResult root = solver.solve(lp.lower, lp.upper, nullptr, &basis);
  ASSERT_EQ(root.status, LpStatus::kOptimal);
  ASSERT_FALSE(basis.empty());
  EXPECT_FALSE(root.warm);

  // Branch step: pin the chosen root option to zero and re-solve warm.
  std::vector<double> lo = lp.lower;
  std::vector<double> hi = lp.upper;
  hi[0] = 0.0;
  const LpResult warm = solver.solve(lo, hi, &basis, nullptr);
  const LpResult cold = solver.solve(lo, hi, nullptr, nullptr);
  ASSERT_EQ(cold.status, LpStatus::kOptimal);
  ASSERT_EQ(warm.status, LpStatus::kOptimal);
  EXPECT_TRUE(warm.warm);
  EXPECT_FALSE(cold.warm);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-9);
  // The whole point: restoring the parent basis beats solving from scratch.
  EXPECT_LE(warm.iterations, cold.iterations);
}

TEST(SparseWarmStart, DetectsInfeasibleChildNode) {
  const LinearProgram lp = extraction_shaped_lp();
  SparseLpSolver solver(lp);
  SparseBasis basis;
  ASSERT_EQ(solver.solve(lp.lower, lp.upper, nullptr, &basis).status,
            LpStatus::kOptimal);
  // Pin both root options to zero: the root-cover equality is violated and
  // the dual simplex must certify infeasibility from the warm basis.
  std::vector<double> lo = lp.lower;
  std::vector<double> hi = lp.upper;
  hi[0] = 0.0;
  hi[1] = 0.0;
  EXPECT_EQ(solver.solve(lo, hi, &basis, nullptr).status,
            LpStatus::kInfeasible);
}

TEST(SparseWarmStart, ChainedFlipsMatchColdSolves) {
  // Simulated dive: fix variables one at a time, chaining the basis, and
  // check every step against a cold solve of the same bounds.
  const LinearProgram lp = extraction_shaped_lp();
  SparseLpSolver solver(lp);
  std::vector<double> lo = lp.lower;
  std::vector<double> hi = lp.upper;
  SparseBasis basis;
  ASSERT_EQ(solver.solve(lo, hi, nullptr, &basis).status,
            LpStatus::kOptimal);
  for (int j : {2, 4, 0}) {
    lo[j] = hi[j] = (j == 0) ? 1.0 : 0.0;
    const LpResult warm = solver.solve(lo, hi, &basis, &basis);
    const LpResult cold = solver.solve(lo, hi, nullptr, nullptr);
    ASSERT_EQ(warm.status, cold.status) << "fix x" << j;
    if (cold.status != LpStatus::kOptimal) break;
    EXPECT_NEAR(warm.objective, cold.objective, 1e-9) << "fix x" << j;
  }
}

}  // namespace
}  // namespace tensat
