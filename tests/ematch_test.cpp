// Tests for the compiled e-matching subsystem (src/ematch): pattern
// compiler unit tests, VM behavior, BackoffScheduler ban/unban logic, and
// the differential test proving the VM returns exactly the same match set
// as the recursive backtracking oracle (tests/naive_matcher.h) across the
// full rule set.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>

#include "ematch/machine.h"
#include "ematch/program.h"
#include "ematch/scheduler.h"
#include "lang/parse.h"
#include "models/models.h"
#include "optimizer/optimizer.h"
#include "rewrite/multi.h"
#include "rewrite/rules.h"
#include "tests/match_rows.h"
#include "tests/naive_matcher.h"

namespace tensat {
namespace {

using ematch::BackoffOptions;
using ematch::BackoffScheduler;
using ematch::compile_pattern;
using ematch::Instruction;
using ematch::Program;

Program compile(const char* sexpr, Graph* keep = nullptr) {
  Graph local(GraphKind::kPattern);
  Graph& pat = keep ? *keep : local;
  const Id root = parse_into(pat, sexpr);
  return compile_pattern(pat, root);
}

// ---- Pattern compiler ------------------------------------------------------

TEST(EmatchCompile, SimpleBinaryPattern) {
  const Program prog = compile("(ewadd ?x ?y)");
  ASSERT_EQ(prog.insts.size(), 1u);
  EXPECT_EQ(prog.insts[0].kind, Instruction::Kind::kBind);
  EXPECT_EQ(prog.insts[0].op, Op::kEwadd);
  EXPECT_EQ(prog.insts[0].reg, 0);
  EXPECT_EQ(prog.insts[0].out, 1);
  EXPECT_EQ(prog.num_regs, 3);
  EXPECT_EQ(prog.root_op, Op::kEwadd);
  ASSERT_EQ(prog.vars.size(), 2u);
  EXPECT_EQ(prog.vars[0].first.str(), "x");
  EXPECT_EQ(prog.vars[0].second, 1);
  EXPECT_EQ(prog.vars[1].first.str(), "y");
  EXPECT_EQ(prog.vars[1].second, 2);
}

TEST(EmatchCompile, RepeatedVariableEmitsCompare) {
  const Program prog = compile("(ewadd ?x ?x)");
  ASSERT_EQ(prog.insts.size(), 2u);
  EXPECT_EQ(prog.insts[0].kind, Instruction::Kind::kBind);
  EXPECT_EQ(prog.insts[1].kind, Instruction::Kind::kCompare);
  EXPECT_EQ(prog.insts[1].reg, 2);
  EXPECT_EQ(prog.insts[1].other, 1);
  ASSERT_EQ(prog.vars.size(), 1u);  // one variable, bound once
}

TEST(EmatchCompile, LiteralsCompileToChecks) {
  const Program num = compile("(matmul 1 ?a ?b)");
  ASSERT_EQ(num.insts.size(), 2u);
  EXPECT_EQ(num.insts[1].kind, Instruction::Kind::kCheckNum);
  EXPECT_EQ(num.insts[1].num, 1);

  const Program str = compile("(transpose ?x 1_0)");
  ASSERT_EQ(str.insts.size(), 2u);
  EXPECT_EQ(str.insts[1].kind, Instruction::Kind::kCheckStr);
  EXPECT_EQ(str.insts[1].str.str(), "1_0");
}

TEST(EmatchCompile, NestedPatternAllocatesRegistersDepthFirst) {
  const Program prog = compile("(relu (matmul 0 ?a ?b))");
  // bind relu -> r1; bind matmul on r1 -> r2..r4; check_num r2.
  ASSERT_EQ(prog.insts.size(), 3u);
  EXPECT_EQ(prog.insts[0].kind, Instruction::Kind::kBind);
  EXPECT_EQ(prog.insts[0].op, Op::kRelu);
  EXPECT_EQ(prog.insts[1].kind, Instruction::Kind::kBind);
  EXPECT_EQ(prog.insts[1].op, Op::kMatmul);
  EXPECT_EQ(prog.insts[1].reg, 1);
  EXPECT_EQ(prog.insts[1].out, 2);
  EXPECT_EQ(prog.insts[2].kind, Instruction::Kind::kCheckNum);
  EXPECT_EQ(prog.num_regs, 5);
}

TEST(EmatchCompile, LeafRootPrograms) {
  const Program var = compile("?x");
  EXPECT_TRUE(var.insts.empty());
  EXPECT_EQ(var.root_op, Op::kVar);
  ASSERT_EQ(var.vars.size(), 1u);
  EXPECT_EQ(var.vars[0].second, 0);

  const Program num = compile("7");
  ASSERT_EQ(num.insts.size(), 1u);
  EXPECT_EQ(num.insts[0].kind, Instruction::Kind::kCheckNum);
  EXPECT_EQ(num.root_op, Op::kNum);
}

TEST(EmatchCompile, ToStringListsInstructions) {
  const Program prog = compile("(ewadd ?x ?x)");
  const std::string listing = ematch::to_string(prog);
  EXPECT_NE(listing.find("bind r0, ewadd, r1"), std::string::npos);
  EXPECT_NE(listing.find("compare r2, r1"), std::string::npos);
  EXPECT_NE(listing.find("yield ?x=r1"), std::string::npos);
}

// ---- VM behavior -----------------------------------------------------------

TEST(EmatchVM, SearchUsesOpIndexCandidates) {
  Graph g;
  const Id a = g.input("a", {2, 2});
  const Id b = g.weight("b", {2, 2});
  g.add_root(g.matmul(a, b));
  g.add_root(g.relu(a));
  EGraph eg;
  eg.add_graph(g);

  Graph pat(GraphKind::kPattern);
  const Program prog = compile_pattern(pat, parse_into(pat, "(matmul ?act ?a ?b)"));
  const ematch::MatchRows rows = ematch::search(eg, prog);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows.width, 4u);  // the root, then ?act ?a ?b
  // The matched root really is the matmul class.
  const auto idx = eg.classes_with_op(Op::kMatmul);
  ASSERT_EQ(idx.size(), 1u);
  EXPECT_EQ(eg.find(rows.row(0)[0]), idx[0]);
}

TEST(EmatchVM, MatchLimitStopsSearch) {
  Graph g;
  const Id x = g.input("x", {4, 4});
  for (int i = 0; i < 10; ++i)
    g.add_root(g.matmul(x, g.weight("w" + std::to_string(i), {4, 4})));
  EGraph eg;
  eg.add_graph(g);
  Graph pat(GraphKind::kPattern);
  const Id root = parse_into(pat, "(matmul ?act ?a ?b)");
  const Program prog = compile_pattern(pat, root);
  ematch::MatchLimits limits;
  limits.max_matches = 4;
  EXPECT_EQ(ematch::search(eg, prog, limits).size(), 4u);
  ematch::MatchLimits steps;
  steps.max_steps = 3;
  EXPECT_LT(ematch::search(eg, prog, steps).size(), 10u);
}

TEST(EmatchVM, RowsHoldTheRootThenTheVariablesInProgramOrder) {
  Graph g;
  const Id a = g.input("a", {2, 2});
  const Id b = g.input("b", {2, 2});
  const Id r = g.relu(g.ewadd(b, a));
  g.add_root(r);
  EGraph eg;
  auto mapping = eg.add_graph(g);
  Graph pat(GraphKind::kPattern);
  const Program prog =
      compile_pattern(pat, parse_into(pat, "(relu (ewadd ?y ?x))"));
  const ematch::MatchRows rows = ematch::search(eg, prog);
  ASSERT_EQ(rows.size(), 1u);
  ASSERT_EQ(rows.width, 3u);
  ASSERT_EQ(rows.ids.size(), 3u);
  EXPECT_EQ(rows.row(0)[0], eg.find(mapping.at(r)));
  EXPECT_EQ(rows.row(0)[1], eg.find(mapping.at(b)));  // ?y binds first
  EXPECT_EQ(rows.row(0)[2], eg.find(mapping.at(a)));
}

// ---- Differential test against the legacy matcher --------------------------

/// Canonical fingerprint of a match set: multiset of (root, var=class...)
/// lines with every id canonicalized. Equal fingerprints <=> equal match
/// multisets.
std::string fingerprint(const EGraph& eg, const std::vector<PatternMatch>& matches) {
  std::vector<std::string> lines;
  lines.reserve(matches.size());
  for (const PatternMatch& m : matches) {
    std::ostringstream os;
    os << eg.find(m.root) << ":";
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

/// Asserts VM == naive for every canonical pattern of default_rules().
void expect_parity(const EGraph& eg, const char* context) {
  const MultiPlan plan = build_multi_plan(default_rules());
  ematch::MatchLimits vm_unlimited;
  vm_unlimited.max_matches = 0;
  vm_unlimited.max_steps = 0;
  for (size_t p = 0; p < plan.patterns.size(); ++p) {
    const CanonicalPattern& cp = plan.patterns[p];
    const auto vm =
        match_rows::decode(ematch::search(eg, cp.program, vm_unlimited), cp.program);
    const auto naive = naive_oracle::search_pattern_naive(eg, cp.pat, cp.root);
    EXPECT_EQ(fingerprint(eg, vm), fingerprint(eg, naive))
        << context << ": pattern " << cp.key;
  }
}

TEST(EmatchDifferential, SeedEGraphsOfAllModels) {
  for (const ModelInfo& m : tiny_models()) {
    const EGraph eg = seed_egraph(m.graph);
    expect_parity(eg, m.name.c_str());
  }
}

TEST(EmatchDifferential, ExploredEGraphWithMergesAndFilters) {
  // After exploration the e-graph has merged classes, congruence-closure
  // unions, and cycle-filtered e-nodes — the hard cases for index staleness.
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
  expect_parity(eg, "explored shared-matmuls");
}

TEST(EmatchDifferential, ExploredNasrnnEGraph) {
  EGraph eg = seed_egraph(make_nasrnn(1, 4, 32));
  TensatOptions opt;
  opt.k_max = 2;
  opt.k_multi = 1;
  opt.node_limit = 2000;
  run_exploration(eg, default_rules(), opt);
  expect_parity(eg, "explored nasrnn");
}

// ---- BackoffScheduler ------------------------------------------------------

TEST(Scheduler, NoBanUnderLimit) {
  BackoffScheduler sched(2, BackoffOptions{10, 3});
  EXPECT_FALSE(sched.record_matches(0, 0, 10));  // at the limit: allowed
  EXPECT_FALSE(sched.is_banned(0, 1));
  EXPECT_FALSE(sched.any_banned(1));
}

TEST(Scheduler, BanOnBlownBudgetAndExpiry) {
  BackoffScheduler sched(2, BackoffOptions{10, 3});
  EXPECT_TRUE(sched.record_matches(0, 0, 11));
  // Banned for ban_length = 3 iterations: 1, 2, 3; free again at 4.
  EXPECT_TRUE(sched.is_banned(0, 1));
  EXPECT_TRUE(sched.is_banned(0, 3));
  EXPECT_FALSE(sched.is_banned(0, 4));
  EXPECT_FALSE(sched.is_banned(1, 1));  // other rules unaffected
  EXPECT_TRUE(sched.any_banned(2));
  EXPECT_FALSE(sched.any_banned(4));
}

TEST(Scheduler, BudgetAndBanLengthDoubleOnRepeatOffense) {
  BackoffScheduler sched(1, BackoffOptions{10, 3});
  EXPECT_EQ(sched.match_limit(0), 10u);
  EXPECT_TRUE(sched.record_matches(0, 0, 11));
  EXPECT_EQ(sched.match_limit(0), 20u);  // doubled budget after first ban
  EXPECT_FALSE(sched.record_matches(0, 4, 15));  // within the doubled budget
  EXPECT_TRUE(sched.record_matches(0, 5, 21));
  // Second ban lasts 2 * ban_length = 6 iterations: 6..11, free at 12.
  EXPECT_TRUE(sched.is_banned(0, 11));
  EXPECT_FALSE(sched.is_banned(0, 12));
  EXPECT_EQ(sched.stats(0).times_banned, 2u);
  EXPECT_EQ(sched.stats(0).total_matches, 11u + 15u + 21u);
}

TEST(Scheduler, UnbanAllLiftsBansButKeepsBudgets) {
  BackoffScheduler sched(2, BackoffOptions{10, 100});
  EXPECT_TRUE(sched.record_matches(0, 0, 11));
  EXPECT_TRUE(sched.record_matches(1, 0, 999));
  EXPECT_TRUE(sched.any_banned(1));
  sched.unban_all();
  EXPECT_FALSE(sched.any_banned(1));
  EXPECT_FALSE(sched.is_banned(0, 1));
  EXPECT_EQ(sched.match_limit(0), 20u);  // doubling survives the unban
}

TEST(Scheduler, ExplorationBansExplosiveRulesButStillSaturates) {
  // A tiny budget forces bans on the match-rich algebraic rules; exploration
  // must keep going (unbanning before declaring saturation) and terminate.
  Graph g;
  const Id a = g.input("a", {8, 8});
  const Id b = g.input("b", {8, 8});
  const Id c = g.input("c", {8, 8});
  const Id d = g.input("d", {8, 8});
  g.add_root(g.ewadd(a, g.ewadd(b, g.ewmul(c, d))));
  EGraph eg = seed_egraph(g);
  TensatOptions opt;
  opt.k_max = 50;
  opt.node_limit = 100000;
  opt.backoff = BackoffOptions{2, 1};
  const ExploreStats stats = run_exploration(eg, default_rules(), opt);
  EXPECT_GT(stats.bans, 0u);
  EXPECT_EQ(stats.stop, StopReason::kSaturated);
}

// ---- EGraph op-index -------------------------------------------------------

TEST(OpIndex, MatchesDirectScanAfterMergesAndRebuild) {
  Graph g;
  const Id a = g.input("a", {4, 4});
  const Id b = g.input("b", {4, 4});
  g.add_root(g.relu(a));
  g.add_root(g.relu(b));
  g.add_root(g.tanh(a));
  EGraph eg;
  auto mapping = eg.add_graph(g);
  eg.merge(mapping.at(a), mapping.at(b));  // congruence-merges the two relus

  // Dirty query (merge not yet rebuilt): the index must still come back
  // canonical and duplicate-free via the defensive fallback path.
  const std::vector<Id> dirty = eg.classes_with_op(Op::kInput);
  for (Id id : dirty) EXPECT_EQ(eg.find(id), id);
  EXPECT_TRUE(std::adjacent_find(dirty.begin(), dirty.end()) == dirty.end());
  ASSERT_EQ(dirty.size(), 1u);  // the two inputs are one class now

  eg.rebuild();

  for (Op op : {Op::kRelu, Op::kTanh, Op::kInput, Op::kMatmul}) {
    const std::vector<Id> indexed = eg.classes_with_op(op);
    // The index must be canonical, sorted, and duplicate-free.
    for (Id id : indexed) EXPECT_EQ(eg.find(id), id);
    EXPECT_TRUE(std::is_sorted(indexed.begin(), indexed.end()));
    EXPECT_TRUE(std::adjacent_find(indexed.begin(), indexed.end()) == indexed.end());
    // And agree with a direct scan over all classes.
    std::vector<Id> scan;
    for (Id cls : eg.canonical_classes())
      for (const EClassNode& e : eg.eclass(cls).nodes)
        if (e.node.op == op) {
          scan.push_back(cls);
          break;
        }
    EXPECT_EQ(indexed, scan) << "op " << op_info(op).name;
  }
  EXPECT_EQ(eg.classes_with_op(Op::kRelu).size(), 1u);
}

TEST(OpIndex, DirtyQueriesAreCachedPerVersion) {
  Graph g;
  const Id a = g.input("a", {4, 4});
  const Id b = g.input("b", {4, 4});
  g.add_root(g.relu(a));
  g.add_root(g.relu(b));
  EGraph eg;
  auto mapping = eg.add_graph(g);

  // Clean e-graph: the op-index bucket itself is served, allocation-free —
  // repeated calls return the identical vector.
  const std::vector<Id>* clean1 = &eg.classes_with_op(Op::kInput);
  const std::vector<Id>* clean2 = &eg.classes_with_op(Op::kInput);
  EXPECT_EQ(clean1, clean2);

  eg.merge(mapping.at(a), mapping.at(b));

  // Dirty e-graph: the canonicalized bucket is computed once and cached
  // until the next state change.
  const std::vector<Id>* dirty1 = &eg.classes_with_op(Op::kInput);
  const std::vector<Id>* dirty2 = &eg.classes_with_op(Op::kInput);
  EXPECT_EQ(dirty1, dirty2);
  ASSERT_EQ(dirty1->size(), 1u);
  EXPECT_EQ(eg.find((*dirty1)[0]), (*dirty1)[0]);

  // A state change invalidates the cache: the relus congruence-merge during
  // rebuild, after which the clean path serves the compacted bucket again.
  const uint64_t version_before = eg.version();
  eg.rebuild();
  EXPECT_GT(eg.version(), version_before);  // congruence merge happened
  const std::vector<Id>& relus = eg.classes_with_op(Op::kRelu);
  ASSERT_EQ(relus.size(), 1u);
  EXPECT_EQ(eg.find(relus[0]), relus[0]);
}

}  // namespace
}  // namespace tensat
