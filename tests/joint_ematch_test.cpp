// Tests for the joint multi-pattern search plan and the parallel pattern
// search: joint-program compilation, the differential oracle proving the
// joint plan enumerates exactly the Cartesian-product join of the per-source
// match sets (with the naive backtracker as the per-source oracle), and
// determinism of N-thread vs 1-thread search.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <sstream>
#include <vector>

#include "ematch/machine.h"
#include "ematch/program.h"
#include "lang/parse.h"
#include "models/models.h"
#include "optimizer/optimizer.h"
#include "rewrite/multi.h"
#include "rewrite/rules.h"
#include "support/parallel.h"
#include "tests/naive_matcher.h"

namespace tensat {
namespace {

using ematch::compile_joint_pattern;
using ematch::Instruction;
using ematch::JointMatch;
using ematch::Program;

// ---- Joint-program compilation ---------------------------------------------

TEST(JointCompile, SharedVariablesCompareAcrossSubPatterns) {
  // (matmul ?act ?a ?b) (matmul ?act ?a ?c): the second sub-pattern's ?act
  // and ?a occurrences must prune via kCompare against the first's registers.
  Graph pat(GraphKind::kPattern);
  const Id r1 = parse_into(pat, "(matmul ?act ?a ?b)");
  const Id r2 = parse_into(pat, "(matmul ?act ?a ?c)");
  const Program prog = compile_joint_pattern(pat, {r1, r2});

  ASSERT_TRUE(prog.is_joint());
  ASSERT_EQ(prog.root_regs.size(), 2u);
  EXPECT_EQ(prog.root_regs[0], 0);
  EXPECT_EQ(prog.root_regs[1], 4);
  EXPECT_EQ(prog.num_regs, 8);

  // scan r0; bind r0 -> r1..r3; scan r4; bind r4 -> r5..r7; compare x2.
  ASSERT_EQ(prog.insts.size(), 6u);
  EXPECT_EQ(prog.insts[0].kind, Instruction::Kind::kScan);
  EXPECT_EQ(prog.insts[0].reg, 0);
  EXPECT_EQ(prog.insts[0].op, Op::kMatmul);
  EXPECT_EQ(prog.insts[1].kind, Instruction::Kind::kBind);
  EXPECT_EQ(prog.insts[2].kind, Instruction::Kind::kScan);
  EXPECT_EQ(prog.insts[2].reg, 4);
  EXPECT_EQ(prog.insts[3].kind, Instruction::Kind::kBind);
  EXPECT_EQ(prog.insts[4].kind, Instruction::Kind::kCompare);
  EXPECT_EQ(prog.insts[4].reg, 5);
  EXPECT_EQ(prog.insts[4].other, 1);  // second ?act vs first ?act
  EXPECT_EQ(prog.insts[5].kind, Instruction::Kind::kCompare);
  EXPECT_EQ(prog.insts[5].other, 2);  // second ?a vs first ?a

  // One binding per distinct variable, first occurrence wins.
  ASSERT_EQ(prog.vars.size(), 4u);
  EXPECT_EQ(prog.vars[0].first.str(), "act");
  EXPECT_EQ(prog.vars[3].first.str(), "c");

  const std::string listing = ematch::to_string(prog);
  EXPECT_NE(listing.find("scan r0, matmul"), std::string::npos);
  EXPECT_NE(listing.find("scan r4, matmul"), std::string::npos);
  EXPECT_NE(listing.find("root=r0 root=r4"), std::string::npos);
}

TEST(JointCompile, DefaultMultiRulesAllCompile) {
  const MultiPlan plan = build_multi_plan(default_rules());
  const auto& rules = default_rules();
  size_t joint = 0;
  for (size_t r = 0; r < rules.size(); ++r) {
    if (!rules[r].is_multi()) {
      EXPECT_FALSE(plan.joint_programs[r].is_joint());
      continue;
    }
    ++joint;
    const Program& prog = plan.joint_programs[r];
    ASSERT_TRUE(prog.is_joint());
    EXPECT_EQ(prog.root_regs.size(), rules[r].src_roots.size());
    // Every source variable is bound exactly once.
    for (Id src : rules[r].src_roots)
      for (Symbol v : pattern_vars(rules[r].pat, src))
        EXPECT_EQ(std::count_if(prog.vars.begin(), prog.vars.end(),
                                [&](const auto& p) { return p.first == v; }),
                  1)
            << rules[r].name << " ?" << v.str();
  }
  EXPECT_GE(joint, 4u);
}

// ---- Differential oracle: joint plan == Cartesian-product join -------------

/// Canonical fingerprint of a joint match set: multiset of
/// "root,root,...: var=class ..." lines with every id canonicalized.
std::string fingerprint(const EGraph& eg, const std::vector<JointMatch>& matches) {
  std::vector<std::string> lines;
  lines.reserve(matches.size());
  for (const JointMatch& m : matches) {
    std::ostringstream os;
    for (Id root : m.roots) os << eg.find(root) << ",";
    os << ":";
    std::vector<std::pair<std::string, Id>> bindings;
    for (const auto& [var, cls] : m.subst.bindings())
      bindings.emplace_back(var.str(), eg.find(cls));
    std::sort(bindings.begin(), bindings.end());
    for (const auto& [var, cls] : bindings) os << " " << var << "=" << cls;
    lines.push_back(os.str());
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += "\n";
  }
  return out;
}

/// The Cartesian-product join of paper Algorithm 1 (lines 16-20): every
/// combination of one match per source list whose substitutions agree on the
/// variables they share, as (roots, merged substitution) tuples.
std::vector<JointMatch> cartesian_join(
    const std::vector<std::vector<PatternMatch>>& per_source) {
  std::vector<JointMatch> out;
  for (const std::vector<PatternMatch>& list : per_source)
    if (list.empty()) return out;
  std::vector<size_t> idx(per_source.size(), 0);
  for (;;) {
    JointMatch jm;
    std::optional<Subst> combined = Subst{};
    for (size_t k = 0; k < per_source.size() && combined; ++k) {
      const PatternMatch& m = per_source[k][idx[k]];
      jm.roots.push_back(m.root);
      combined = Subst::merged(*combined, m.subst);
    }
    if (combined.has_value()) {
      jm.subst = std::move(*combined);
      out.push_back(std::move(jm));
    }
    size_t k = 0;  // advance the odometer, source 0 fastest
    for (; k < idx.size(); ++k) {
      if (++idx[k] < per_source[k].size()) break;
      idx[k] = 0;
    }
    if (k == idx.size()) return out;
  }
}

/// Asserts, for every multi-pattern rule, that the joint program enumerates
/// exactly the compatible combinations of the per-source match sets — with
/// the per-source sets produced by the NAIVE matcher, so the joint plan is
/// anchored to the same reference oracle as the single-pattern VM.
void expect_joint_parity(const EGraph& eg, const char* context) {
  const auto& rules = default_rules();
  const MultiPlan plan = build_multi_plan(rules);
  ematch::MatchLimits vm_unlimited;
  vm_unlimited.max_matches = 0;
  vm_unlimited.max_steps = 0;
  for (size_t r = 0; r < rules.size(); ++r) {
    if (!rules[r].is_multi()) continue;
    std::vector<std::vector<PatternMatch>> per_source;
    for (Id src : rules[r].src_roots)
      per_source.push_back(
          naive_oracle::search_pattern_naive(eg, rules[r].pat, src));
    const auto baseline = cartesian_join(per_source);
    const auto joint = ematch::search_joint(eg, plan.joint_programs[r], vm_unlimited);
    EXPECT_EQ(fingerprint(eg, joint), fingerprint(eg, baseline))
        << context << ": rule " << rules[r].name;
  }
}

TEST(JointDifferential, SeedEGraphsOfAllModels) {
  for (const ModelInfo& m : tiny_models()) {
    const EGraph eg = seed_egraph(m.graph);
    expect_joint_parity(eg, m.name.c_str());
  }
}

TEST(JointDifferential, SharedOperandMatmulsWithIncompatibleGroups) {
  // Two groups of matmuls with distinct inputs: the Cartesian product is
  // (2*3)^2 = 36 combinations per rule but only same-group pairs agree on
  // ?a — exactly the pruning the joint plan must reproduce, not improve on.
  Graph g;
  for (int grp = 0; grp < 2; ++grp) {
    const Id x = g.input("x" + std::to_string(grp), {16, 16});
    for (int i = 0; i < 3; ++i)
      g.add_root(g.matmul(x, g.weight("w" + std::to_string(3 * grp + i), {16, 16})));
  }
  const EGraph eg = seed_egraph(g);
  expect_joint_parity(eg, "two-group matmuls");

  // Spot-check the counts for the share-lhs rule: 2 groups x 3x3 pairs.
  const auto& rules = default_rules();
  const MultiPlan plan = build_multi_plan(rules);
  for (size_t r = 0; r < rules.size(); ++r) {
    if (rules[r].name != "multi-matmul-share-lhs") continue;
    const auto joint = ematch::search_joint(eg, plan.joint_programs[r]);
    EXPECT_EQ(joint.size(), 18u);
    for (const JointMatch& jm : joint) {
      ASSERT_EQ(jm.roots.size(), 2u);
      // Shared ?a really is shared: both roots' matmuls read the same input.
      const auto a = jm.subst.get(Symbol("a"));
      ASSERT_TRUE(a.has_value());
    }
  }
}

TEST(JointDifferential, ExploredEGraphWithMergesAndFilters) {
  Graph g;
  const Id x = g.input("x", {64, 256});
  for (int i = 0; i < 3; ++i)
    g.add_root(g.matmul(x, g.weight("w" + std::to_string(i), {256, 256})));
  EGraph eg = seed_egraph(g);
  TensatOptions opt;
  opt.k_max = 3;
  opt.k_multi = 2;
  opt.node_limit = 3000;
  run_exploration(eg, default_rules(), opt);
  ASSERT_GT(eg.num_filtered(), 0u);  // the workload really exercises filtering
  expect_joint_parity(eg, "explored shared-matmuls");
}

// ---- Exploration-level equivalence and stats -------------------------------

TEST(JointExploration, OptimizesBertAndRecordsStats) {
  const Graph g = make_bert(1, 8, 64);
  TensatOptions opt;
  opt.k_max = 3;
  opt.k_multi = 2;
  opt.node_limit = 5000;
  opt.extractor = ExtractorKind::kGreedy;
  const T4CostModel model;
  const TensatResult result = optimize(g, default_rules(), model, opt);
  ASSERT_TRUE(result.ok);
  EXPECT_LE(result.optimized_cost, result.original_cost);
  EXPECT_GT(result.explore.multi_matches_found, 0u);
}

// ---- Parallel search determinism -------------------------------------------

TEST(ParallelSearch, TinySweepsSkipThePool) {
  // run_exploration dispatches a search sweep to the pool only from
  // kMinParallelSearchWork up. One pattern over a seed e-graph sits below
  // that floor...
  EGraph eg = seed_egraph(make_nasrnn(1, 4, 32));
  const MultiPlan plan = build_multi_plan(default_rules());
  std::vector<const ematch::Program*> progs;
  for (const CanonicalPattern& cp : plan.patterns) progs.push_back(&cp.program);
  const std::vector<const ematch::Program*> one(progs.begin(),
                                                progs.begin() + 1);
  const size_t tiny_estimate = ematch::search_work_estimate(eg, one);
  EXPECT_LT(tiny_estimate, ematch::kMinParallelSearchWork);
  EXPECT_GT(tiny_estimate, 0u);

  // ...and the estimate scales with the candidate classes, so a graph with
  // many root-op candidates crosses the floor and re-enables the pool.
  Graph big;
  const Id x = big.input("x", {8, 8});
  for (int i = 0; i < 400; ++i) {
    const Id w = big.weight("w" + std::to_string(i), {8, 8});
    big.add_root(big.matmul(x, w));
  }
  EGraph big_eg = seed_egraph(big);
  EXPECT_GE(ematch::search_work_estimate(big_eg, progs),
            ematch::kMinParallelSearchWork);
}

TEST(ParallelSearch, ExplorationStatsIndependentOfThreadCount) {
  auto explore = [](size_t threads) {
    EGraph eg = seed_egraph(make_bert(1, 8, 64));
    TensatOptions opt;
    opt.k_max = 3;
    opt.k_multi = 2;
    opt.node_limit = 4000;
    opt.search_threads = threads;
    ExploreStats stats = run_exploration(eg, default_rules(), opt);
    stats.seconds = 0.0;  // the only field allowed to differ
    return std::make_tuple(stats.iterations, stats.stop, stats.enodes,
                           stats.enodes_total, stats.eclasses, stats.filtered,
                           stats.matches_found, stats.applications,
                           stats.multi_matches_found, stats.bans,
                           stats.searches_skipped);
  };
  const auto serial = explore(1);
  EXPECT_EQ(explore(2), serial);
  EXPECT_EQ(explore(4), serial);
  EXPECT_EQ(explore(0), serial);  // 0 = hardware concurrency
}

TEST(ParallelSearch, JointSearchAlsoRunsUnderWorkers) {
  // Joint searches fan out through the same pool inside run_exploration;
  // this pins the multi-pattern stats across thread counts too.
  auto multi_found = [](size_t threads) {
    EGraph eg = seed_egraph(make_bert(1, 8, 64));
    TensatOptions opt;
    opt.k_max = 1;
    opt.search_threads = threads;
    return run_exploration(eg, default_rules(), opt).multi_matches_found;
  };
  EXPECT_EQ(multi_found(4), multi_found(1));
}

}  // namespace
}  // namespace tensat
