#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "ilp/milp.h"
#include "support/check.h"
#include "support/rng.h"
#include "support/timer.h"

namespace tensat {
namespace {

TEST(Milp, PureLpPassesThrough) {
  LinearProgram lp;
  lp.add_var(0, 2, 1.0);
  const MilpResult r = solve_milp(lp, {false});
  EXPECT_EQ(r.status, MilpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 0.0, 1e-7);
}

TEST(Milp, RoundsViaBranching) {
  // min -x - y s.t. 2x + 2y <= 3, x,y binary -> best integer point (1,0) or
  // (0,1), value -1 (LP relaxation would give -1.5 at (0.75,0.75)).
  LinearProgram lp;
  lp.add_var(0, 1, -1.0);
  lp.add_var(0, 1, -1.0);
  lp.add_row({{0, 2.0}, {1, 2.0}}, -kInf, 3.0);
  const MilpResult r = solve_milp(lp, {true, true});
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  EXPECT_NEAR(r.objective, -1.0, 1e-6);
  EXPECT_NEAR(r.x[0] + r.x[1], 1.0, 1e-6);
}

TEST(Milp, KnapsackOptimal) {
  // Classic 0/1 knapsack: values {6,10,12}, weights {1,2,3}, capacity 5.
  // Optimum picks items 2 and 3: value 22.
  LinearProgram lp;
  lp.add_var(0, 1, -6.0);
  lp.add_var(0, 1, -10.0);
  lp.add_var(0, 1, -12.0);
  lp.add_row({{0, 1.0}, {1, 2.0}, {2, 3.0}}, -kInf, 5.0);
  const MilpResult r = solve_milp(lp, {true, true, true});
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  EXPECT_NEAR(r.objective, -22.0, 1e-6);
  EXPECT_NEAR(r.x[0], 0.0, 1e-6);
}

TEST(Milp, ProvenOptimumHasZeroGap) {
  LinearProgram lp;
  lp.add_var(0, 1, -1.0);
  lp.add_var(0, 1, -1.0);
  lp.add_row({{0, 2.0}, {1, 2.0}}, -kInf, 3.0);
  MilpOptions opt;
  opt.rel_gap = 0.0;
  const MilpResult r = solve_milp(lp, {true, true}, opt);
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  EXPECT_EQ(r.gap, 0.0);
  EXPECT_NEAR(r.best_bound, r.objective, 1e-9);
}

TEST(Milp, RelGapStopKeepsCertifiedBound) {
  // A loose rel_gap accepts the first incumbent; the reported bound must
  // stay the true LP frontier (-1.5 here), making the gap a certificate —
  // not get snapped to the incumbent.
  LinearProgram lp;
  lp.add_var(0, 1, -1.0);
  lp.add_var(0, 1, -1.0);
  lp.add_row({{0, 2.0}, {1, 2.0}}, -kInf, 3.0);
  MilpOptions opt;
  opt.rel_gap = 0.9;
  const MilpResult r = solve_milp(lp, {true, true}, opt,
                                  std::vector<double>{1.0, 0.0});
  ASSERT_EQ(r.status, MilpStatus::kOptimal);  // within the requested gap
  EXPECT_NEAR(r.objective, -1.0, 1e-6);
  EXPECT_LE(r.best_bound, r.objective + 1e-9);
  EXPECT_GE(r.best_bound, -1.5 - 1e-6);  // true relaxation frontier
  EXPECT_NEAR(r.gap, (r.objective - r.best_bound) / std::abs(r.objective),
              1e-9);
  EXPECT_LE(r.gap, opt.rel_gap + 1e-9);
}

TEST(Milp, NodeLimitFallbackReportsFiniteGap) {
  // max_nodes = 1 is the engine's LP-relaxation + rounding fallback: one
  // root node (LP + dive + rounding) must still return an incumbent and the
  // root bound, with gap = (obj - bound) / |obj|.
  LinearProgram lp;
  Rng rng(11);
  for (int j = 0; j < 12; ++j) lp.add_var(0, 1, rng.uniform(0.5, 3.0));
  for (int r = 0; r < 8; ++r) {
    LinearProgram::Row row;
    for (int j = 0; j < 12; ++j)
      if (rng.chance(0.4)) row.terms.emplace_back(j, 1.0);
    if (row.terms.empty()) row.terms.emplace_back(0, 1.0);
    row.lo = 1.0;
    row.hi = kInf;
    lp.rows.push_back(row);
  }
  MilpOptions opt;
  opt.max_nodes = 1;
  opt.rel_gap = 0.0;
  const MilpResult r = solve_milp(lp, std::vector<bool>(12, true), opt);
  ASSERT_TRUE(r.status == MilpStatus::kFeasible ||
              r.status == MilpStatus::kOptimal);
  EXPECT_TRUE(lp.feasible(r.x, 1e-6));
  EXPECT_TRUE(std::isfinite(r.best_bound));
  EXPECT_TRUE(std::isfinite(r.gap));
  EXPECT_GE(r.gap, 0.0);
  EXPECT_GE(r.objective, r.best_bound - 1e-9);
}

TEST(Milp, InfeasibleDetected) {
  // x + y = 1 with x,y binary and x + y >= 2 impossible... use x+y=1 and
  // x+y=2 rows.
  LinearProgram lp;
  lp.add_var(0, 1, 0.0);
  lp.add_var(0, 1, 0.0);
  lp.add_row({{0, 1.0}, {1, 1.0}}, 1.0, 1.0);
  lp.add_row({{0, 1.0}, {1, 1.0}}, 2.0, 2.0);
  EXPECT_EQ(solve_milp(lp, {true, true}).status, MilpStatus::kInfeasible);
}

TEST(Milp, FractionalOnlyFeasibleIsIntegerInfeasible) {
  // 2x = 1 with x binary: LP feasible (x=0.5) but no integer point.
  LinearProgram lp;
  lp.add_var(0, 1, 1.0);
  lp.add_row({{0, 2.0}}, 1.0, 1.0);
  EXPECT_EQ(solve_milp(lp, {true}).status, MilpStatus::kInfeasible);
}

TEST(Milp, WarmStartBoundsSearch) {
  LinearProgram lp;
  lp.add_var(0, 1, -1.0);
  lp.add_var(0, 1, -1.0);
  lp.add_row({{0, 2.0}, {1, 2.0}}, -kInf, 3.0);
  const std::vector<double> warm = {1.0, 0.0};
  const MilpResult r = solve_milp(lp, {true, true}, {}, warm);
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  EXPECT_NEAR(r.objective, -1.0, 1e-6);
}

TEST(Milp, InfeasibleWarmStartRejected) {
  LinearProgram lp;
  lp.add_var(0, 1, 1.0);
  lp.add_row({{0, 1.0}}, 1.0, 1.0);
  EXPECT_THROW(solve_milp(lp, {true}, {}, std::vector<double>{0.0}), Error);
}

TEST(Milp, MixedIntegerContinuous) {
  // min x + t, x binary, t real in [0,1], t >= 0.5 - x.
  // x=0 -> t=0.5 cost 0.5; x=1 -> t=0 cost 1. Optimum 0.5.
  LinearProgram lp;
  lp.add_var(0, 1, 1.0);  // x (binary)
  lp.add_var(0, 1, 1.0);  // t (continuous)
  lp.add_row({{0, 1.0}, {1, 1.0}}, 0.5, kInf);
  const MilpResult r = solve_milp(lp, {true, false});
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 0.5, 1e-6);
  EXPECT_NEAR(r.x[0], 0.0, 1e-6);
}

TEST(Milp, TimeLimitReturnsIncumbent) {
  // A solvable instance with a zero time budget and a warm start: must
  // return the warm start as feasible incumbent with timed_out set.
  LinearProgram lp;
  lp.add_var(0, 1, -1.0);
  lp.add_var(0, 1, -1.0);
  lp.add_row({{0, 2.0}, {1, 2.0}}, -kInf, 3.0);
  MilpOptions opt;
  opt.time_limit_s = 0.0;
  const std::vector<double> warm = {0.0, 1.0};
  const MilpResult r = solve_milp(lp, {true, true}, opt, warm);
  EXPECT_TRUE(r.timed_out);
  EXPECT_EQ(r.status, MilpStatus::kFeasible);
  EXPECT_NEAR(r.objective, -1.0, 1e-9);
}

TEST(Milp, SequentialSolvesGetFreshDeadlines) {
  // The service keeps one process alive across many solves: every
  // solve_milp must measure its budget from its OWN entry (its milp/solve
  // span's clock), never from process start or any state left by a
  // previous solve. Reusing one MilpOptions object across solves — exactly
  // what a long-lived service does — must not let an earlier solve's
  // elapsed time bleed into a later deadline.
  LinearProgram lp;
  lp.add_var(0, 1, -1.0);
  lp.add_var(0, 1, -1.0);
  lp.add_row({{0, 2.0}, {1, 2.0}}, -kInf, 3.0);
  MilpOptions opt;
  opt.time_limit_s = 30.0;
  for (int i = 0; i < 3; ++i) {
    const Timer call;
    const MilpResult r = solve_milp(lp, {true, true}, opt);
    const double seconds = call.seconds();
    ASSERT_EQ(r.status, MilpStatus::kOptimal) << "solve " << i;
    EXPECT_FALSE(r.timed_out) << "solve " << i;
    // Each solve's clock starts at its own entry: a trivial instance must
    // take (far) less time than the budget even after prior solves.
    EXPECT_LT(seconds, opt.time_limit_s / 2) << "solve " << i;
  }
  // A warm-started re-solve seeded from the previous result's snapshots
  // gets the same fresh deadline and the same certified optimum.
  MilpResult first = solve_milp(lp, {true, true}, opt);
  ASSERT_EQ(first.status, MilpStatus::kOptimal);
  opt.seed_basis = first.root_basis;
  opt.seed_pseudocost = first.pseudocost;
  const MilpResult seeded = solve_milp(lp, {true, true}, opt);
  ASSERT_EQ(seeded.status, MilpStatus::kOptimal);
  EXPECT_FALSE(seeded.timed_out);
  EXPECT_NEAR(seeded.objective, first.objective, 1e-9);
}

TEST(Milp, SeedBasisReusedAcrossSolves) {
  // Exported root basis + pseudocosts from one solve warm the next solve of
  // the same formulation. The certified optimum must not move; the root LP
  // should report a warm-start hit.
  LinearProgram lp;
  Rng rng(77);
  const int n = 10;
  for (int j = 0; j < n; ++j) lp.add_var(0, 1, rng.uniform(0.5, 3.0));
  for (int r = 0; r < 7; ++r) {
    LinearProgram::Row row;
    for (int j = 0; j < n; ++j)
      if (rng.chance(0.4)) row.terms.emplace_back(j, 1.0);
    if (row.terms.empty()) row.terms.emplace_back(0, 1.0);
    row.lo = 1.0;
    row.hi = kInf;
    lp.rows.push_back(row);
  }
  MilpOptions opt;
  opt.rel_gap = 0.0;
  const MilpResult cold = solve_milp(lp, std::vector<bool>(n, true), opt);
  ASSERT_EQ(cold.status, MilpStatus::kOptimal);
  ASSERT_NE(cold.root_basis, nullptr);
  EXPECT_FALSE(cold.root_basis->empty());

  opt.seed_basis = cold.root_basis;
  opt.seed_pseudocost = cold.pseudocost;
  const MilpResult warm = solve_milp(lp, std::vector<bool>(n, true), opt);
  ASSERT_EQ(warm.status, MilpStatus::kOptimal);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-7);
  EXPECT_GE(warm.warm_start_hits, 1);

  // A dimensionally-mismatched seed must be ignored (cold fallback), not
  // crash or corrupt the solve.
  auto junk = std::make_shared<SparseBasis>();
  junk->basic = {0};
  junk->at_upper = {0, 1};
  opt.seed_basis = junk;
  opt.seed_pseudocost = nullptr;
  const MilpResult mismatched = solve_milp(lp, std::vector<bool>(n, true), opt);
  ASSERT_EQ(mismatched.status, MilpStatus::kOptimal);
  EXPECT_NEAR(mismatched.objective, cold.objective, 1e-7);
}

/// Brute force over all binary assignments (continuous vars must be absent).
double brute_force(const LinearProgram& lp) {
  const int n = lp.num_vars();
  double best = kInf;
  for (int mask = 0; mask < (1 << n); ++mask) {
    std::vector<double> x(n);
    for (int j = 0; j < n; ++j) x[j] = (mask >> j) & 1;
    if (!lp.feasible(x)) continue;
    best = std::min(best, lp.objective_value(x));
  }
  return best;
}

class MilpRandomized : public ::testing::TestWithParam<int> {};

TEST_P(MilpRandomized, MatchesBruteForce) {
  Rng rng(1000 + GetParam());
  const int n = 4 + static_cast<int>(rng.below(5));  // 4..8 binaries
  LinearProgram lp;
  for (int j = 0; j < n; ++j) lp.add_var(0, 1, rng.uniform(-3.0, 3.0));
  const int rows = 2 + static_cast<int>(rng.below(3));
  for (int r = 0; r < rows; ++r) {
    LinearProgram::Row row;
    for (int j = 0; j < n; ++j)
      if (rng.chance(0.7)) row.terms.emplace_back(j, rng.uniform(-2.0, 2.0));
    if (row.terms.empty()) row.terms.emplace_back(0, 1.0);
    row.lo = -kInf;
    row.hi = rng.uniform(-0.5, 2.5);
    lp.rows.push_back(row);
  }
  const double expected = brute_force(lp);
  // Exact optima: the default 1e-3 relative gap would let an incumbent
  // within the gap stand, and the 1e-5 check below asks for more.
  MilpOptions opt;
  opt.rel_gap = 0.0;
  const MilpResult got = solve_milp(lp, std::vector<bool>(n, true), opt);
  if (expected == kInf) {
    EXPECT_EQ(got.status, MilpStatus::kInfeasible) << "seed " << GetParam();
  } else {
    ASSERT_EQ(got.status, MilpStatus::kOptimal) << "seed " << GetParam();
    EXPECT_NEAR(got.objective, expected, 1e-5) << "seed " << GetParam();
    EXPECT_TRUE(lp.feasible(got.x, 1e-5));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MilpRandomized, ::testing::Range(0, 40));

/// An extraction-shaped MILP small enough to enumerate (<= 16 binaries):
/// classes 0..C-1 with class 0 the root; every class has one expensive leaf
/// option plus up to three cheap interior options whose 1-3 children are
/// later classes (so every selection is a DAG and a leaf pick always closes
/// it). Rows mirror the extraction formulation: root = 1, at most one
/// option per class, and cover rows aggregated per (parent class, child
/// class).
LinearProgram extraction_shaped_milp(Rng& rng) {
  constexpr int kMaxVars = 16;
  const int classes = 5 + static_cast<int>(rng.below(2));  // 5..6
  std::vector<std::vector<int>> class_vars(classes);
  std::vector<std::vector<std::vector<int>>> option_children(classes);
  LinearProgram lp;
  for (int c = 0; c < classes; ++c) {
    class_vars[c].push_back(lp.add_var(0, 1, rng.uniform(6.0, 12.0)));
    option_children[c].emplace_back();
    const int later = classes - 1 - c;
    // Keep one variable in reserve for each later class's leaf option.
    const int budget = kMaxVars - lp.num_vars() - later;
    const int interior =
        later == 0 ? 0
                   : std::min(budget, 1 + static_cast<int>(rng.below(3)));
    for (int k = 0; k < interior; ++k) {
      class_vars[c].push_back(lp.add_var(0, 1, rng.uniform(0.2, 1.0)));
      std::vector<int> children;
      const int want = 1 + static_cast<int>(rng.below(3));
      for (int t = 0; t < want; ++t) {
        const int child = c + 1 + static_cast<int>(rng.below(later));
        if (std::find(children.begin(), children.end(), child) == children.end())
          children.push_back(child);
      }
      option_children[c].push_back(std::move(children));
    }
  }
  std::vector<std::pair<int, double>> root;
  for (int v : class_vars[0]) root.emplace_back(v, 1.0);
  lp.add_row(std::move(root), 1.0, 1.0);
  for (int c = 0; c < classes; ++c) {
    if (class_vars[c].size() < 2) continue;
    std::vector<std::pair<int, double>> terms;
    for (int v : class_vars[c]) terms.emplace_back(v, 1.0);
    lp.add_row(std::move(terms), -kInf, 1.0);
  }
  for (int c = 0; c < classes; ++c) {
    for (int m = c + 1; m < classes; ++m) {
      std::vector<std::pair<int, double>> terms;
      for (size_t k = 0; k < class_vars[c].size(); ++k) {
        const auto& ch = option_children[c][k];
        if (std::find(ch.begin(), ch.end(), m) != ch.end())
          terms.emplace_back(class_vars[c][k], 1.0);
      }
      if (terms.empty()) continue;
      for (int v : class_vars[m]) terms.emplace_back(v, -1.0);
      lp.add_row(std::move(terms), -kInf, 0.0);
    }
  }
  return lp;
}

// The warm-started B&B on the shape extraction actually hands it, against
// exhaustive enumeration at zero gap. The branching count keeps the check
// honest: an oracle whose instances all solve at the root LP never reaches
// the warm-start, plunging or pseudocost code.
TEST(MilpExtractionShaped, MatchesBruteForce) {
  int branched = 0;
  for (int seed = 0; seed < 40; ++seed) {
    Rng rng(5000 + seed);
    const LinearProgram lp = extraction_shaped_milp(rng);
    const int n = lp.num_vars();
    ASSERT_LE(n, 16) << "seed " << seed;
    const double expected = brute_force(lp);
    ASSERT_LT(expected, kInf) << "seed " << seed;  // leaves make it feasible
    MilpOptions opt;
    opt.rel_gap = 0.0;
    const MilpResult got = solve_milp(lp, std::vector<bool>(n, true), opt);
    ASSERT_EQ(got.status, MilpStatus::kOptimal) << "seed " << seed;
    EXPECT_NEAR(got.objective, expected, 1e-6) << "seed " << seed;
    EXPECT_TRUE(lp.feasible(got.x, 1e-6)) << "seed " << seed;
    if (got.nodes_explored > 1) ++branched;
  }
  EXPECT_GE(branched, 10);
}

}  // namespace
}  // namespace tensat
