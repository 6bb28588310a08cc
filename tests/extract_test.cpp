#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>
#include <vector>

#include "extract/engine/engine.h"
#include "extract/extract.h"
#include "models/models.h"
#include "optimizer/optimizer.h"
#include "rewrite/matcher.h"
#include "rewrite/rules.h"
#include "support/check.h"
#include "support/rng.h"
#include "tests/random_egraph.h"

namespace tensat {
namespace {

const T4CostModel& model() {
  static const T4CostModel m;
  return m;
}

/// Fixed per-operator costs: lets tests craft exact cost relationships the
/// analytic T4 model cannot hit.
class FixedCostModel : public CostModel {
 public:
  explicit FixedCostModel(std::unordered_map<Op, double> costs)
      : costs_(std::move(costs)) {}
  [[nodiscard]] double op_cost(const TNode& node, span<const ValueInfo* const>,
                               const ValueInfo&) const override {
    auto it = costs_.find(node.op);
    return it == costs_.end() ? 0.0 : it->second;
  }

 private:
  std::unordered_map<Op, double> costs_;
};

/// Runs the decomposing engine and the monolithic ILP at zero MIP gap and
/// asserts they agree on solvability and (when both solve) on the extracted
/// cost — the engine's differential-parity contract.
void expect_engine_parity(const EGraph& eg, const CostModel& m,
                          IlpExtractOptions base = {}) {
  base.rel_gap = 0.0;  // exact parity needs exact per-core optima
  ExtractEngineOptions engine_opt;
  static_cast<IlpExtractOptions&>(engine_opt) = base;
  const EngineExtractionResult engine = extract_engine(eg, m, engine_opt);
  const IlpExtractionResult mono = extract_ilp(eg, m, base);
  EXPECT_EQ(engine.ok, mono.ok);
  if (engine.ok && mono.ok) {
    EXPECT_NEAR(engine.cost, mono.cost, 1e-6 + 1e-9 * std::abs(mono.cost));
  }
}

TEST(Extract, TrivialGraphRoundTrips) {
  Graph g;
  const Id x = g.input("x", {8, 8});
  const Id w = g.weight("w", {8, 8});
  g.add_root(g.matmul(x, w));
  EGraph eg = seed_egraph(g);

  const ExtractionResult greedy = extract_greedy(eg, model());
  ASSERT_TRUE(greedy.ok);
  EXPECT_NEAR(greedy.cost, graph_cost(g, model()), 1e-6);

  const IlpExtractionResult ilp = extract_ilp(eg, model());
  ASSERT_TRUE(ilp.ok);
  EXPECT_EQ(ilp.milp_status, MilpStatus::kOptimal);
  EXPECT_NEAR(ilp.cost, greedy.cost, 1e-6);
}

TEST(Extract, PicksCheaperAlternative) {
  // Class with two options: relu(relu(x)) merged with relu(x) — extraction
  // must pick the single relu.
  Graph g;
  const Id x = g.input("x", {64, 64});
  const Id r1 = g.relu(x);
  const Id r2 = g.relu(r1);
  g.add_root(r2);
  EGraph eg = seed_egraph(g);
  // Apply relu-idempotent manually: merge class(r2) with class(r1).
  Graph g2;
  const Id x2 = g2.input("x", {64, 64});
  const Id r = g2.relu(x2);
  g2.add_root(r);
  auto m2 = eg.add_graph(g2);
  eg.merge(eg.root(), m2.at(r));
  eg.rebuild();

  const ExtractionResult greedy = extract_greedy(eg, model());
  ASSERT_TRUE(greedy.ok);
  EXPECT_NEAR(greedy.cost, graph_cost(g2, model()), 1e-6);
  const IlpExtractionResult ilp = extract_ilp(eg, model());
  ASSERT_TRUE(ilp.ok);
  EXPECT_NEAR(ilp.cost, greedy.cost, 1e-6);
}

/// Applies the paper's Fig. 2 multi-pattern rule (two matmuls sharing an
/// operand merge into one matmul over concatenated weights, recovered with
/// splits) to every compatible match pair, then rebuilds. Returns true if at
/// least one application landed.
bool apply_fig2_rule(EGraph& eg) {
  const Rewrite rule = make_rewrite(
      "fig2",
      "(matmul ?act ?a ?b) (matmul ?act ?a ?c)",
      "(split0 (split 1 (matmul ?act ?a (concat2 1 ?b ?c)))) "
      "(split1 (split 1 (matmul ?act ?a (concat2 1 ?b ?c))))");
  auto matches = search_pattern(eg, rule.pat, rule.src_roots[0]);
  auto matches2 = search_pattern(eg, rule.pat, rule.src_roots[1]);
  bool applied = false;
  for (const auto& ma : matches) {
    for (const auto& mb : matches2) {
      if (eg.find(ma.root) == eg.find(mb.root)) continue;
      auto combined = Subst::merged(ma.subst, mb.subst);
      if (!combined) continue;
      auto t0 = instantiate(eg, rule.pat, rule.dst_roots[0], *combined);
      auto t1 = instantiate(eg, rule.pat, rule.dst_roots[1], *combined);
      if (!t0 || !t1) continue;
      eg.merge(ma.root, *t0);
      eg.merge(mb.root, *t1);
      applied = true;
    }
  }
  eg.rebuild();
  return applied;
}

/// Builds the paper's Fig. 2 situation: two matmuls sharing an input, plus
/// the merged concat/split alternative, in one e-graph.
EGraph shared_matmul_egraph(Graph* out_graph = nullptr) {
  Graph g;
  const Id x = g.input("x", {64, 256});
  const Id w1 = g.weight("w1", {256, 256});
  const Id w2 = g.weight("w2", {256, 256});
  const Id m1 = g.matmul(x, w1);
  const Id m2 = g.matmul(x, w2);
  g.add_root(m1);
  g.add_root(m2);
  if (out_graph) *out_graph = g;
  EGraph eg = seed_egraph(g);
  EXPECT_TRUE(apply_fig2_rule(eg));
  return eg;
}

TEST(Extract, GreedyMissesSharedSubgraph) {
  // The paper's §6.5 example: greedy never picks the split nodes because it
  // does not see that the merged matmul is shared between both outputs; ILP
  // does.
  Graph original;
  EGraph eg = shared_matmul_egraph(&original);

  const ExtractionResult greedy = extract_greedy(eg, model());
  const IlpExtractionResult ilp = extract_ilp(eg, model());
  ASSERT_TRUE(greedy.ok);
  ASSERT_TRUE(ilp.ok);

  // Greedy keeps the two separate matmuls (the original graph).
  EXPECT_NEAR(greedy.cost, graph_cost(original, model()), 1e-6);
  // ILP finds the merged form: strictly cheaper, and it contains a split.
  EXPECT_LT(ilp.cost, greedy.cost - 1e-6);
  EXPECT_GT(ilp.graph.op_histogram().count(Op::kSplit), 0u);
}

TEST(Extract, IlpOptimalOnSmallEGraphsByEnumeration) {
  // Cross-check ILP extraction against exhaustive enumeration of per-class
  // choices on the Fig. 2 e-graph (small enough to enumerate).
  EGraph eg = shared_matmul_egraph();
  const IlpExtractionResult ilp = extract_ilp(eg, model());
  ASSERT_TRUE(ilp.ok);

  // Enumerate: per reachable class pick each unfiltered node, recursively —
  // here the only real choice is in the two matched root classes, so try
  // greedy-style fixed choices via ILP with forced picks instead. We settle
  // for verifying feasibility + that cost equals graph_cost of its graph.
  EXPECT_NEAR(ilp.cost, graph_cost(ilp.graph, model()), 1e-9);
  EXPECT_EQ(ilp.milp_status, MilpStatus::kOptimal);
}

TEST(Extract, ExtractedGraphIsAcyclicAndWellFormed) {
  EGraph eg = shared_matmul_egraph();
  const IlpExtractionResult ilp = extract_ilp(eg, model());
  ASSERT_TRUE(ilp.ok);
  // topo_order succeeds only on DAGs reachable from roots.
  const auto order = ilp.graph.topo_order();
  EXPECT_GT(order.size(), 0u);
  EXPECT_EQ(ilp.graph.roots().size(), 1u);
}

TEST(Extract, CycleConstraintsPreventCyclicSelection) {
  // Build a cyclic e-graph (no filtering) and require the ILP with cycle
  // constraints to return an acyclic graph.
  Graph g;
  const Id x = g.input("x", {4, 4});
  const Id y = g.weight("y", {4, 4});
  const Id m1 = g.matmul(x, y);
  const Id m2 = g.matmul(x, m1);
  g.add_root(m2);
  EGraph eg = seed_egraph(g);
  ASSERT_TRUE(apply_fig2_rule(eg));

  IlpExtractOptions with_cycles;
  with_cycles.cycle_constraints = true;
  const IlpExtractionResult r = extract_ilp(eg, model(), with_cycles);
  ASSERT_TRUE(r.ok);
  EXPECT_FALSE(r.cyclic_selection);
  EXPECT_GT(r.graph.topo_order().size(), 0u);

  // Integer topological variables behave the same.
  IlpExtractOptions int_mode = with_cycles;
  int_mode.integer_topo_vars = true;
  const IlpExtractionResult r2 = extract_ilp(eg, model(), int_mode);
  ASSERT_TRUE(r2.ok);
  EXPECT_NEAR(r2.cost, r.cost, 1e-5);
}

TEST(Extract, FilteredNodesNeverSelected) {
  EGraph eg = shared_matmul_egraph();
  // Filter every split node; ILP must fall back to the separate matmuls.
  for (Id cls : eg.canonical_classes()) {
    const auto& nodes = eg.eclass(cls).nodes;
    for (size_t i = 0; i < nodes.size(); ++i)
      if (nodes[i].node.op == Op::kSplit0 || nodes[i].node.op == Op::kSplit1)
        eg.set_filtered(cls, i);
  }
  const IlpExtractionResult ilp = extract_ilp(eg, model());
  ASSERT_TRUE(ilp.ok);
  EXPECT_EQ(ilp.graph.op_histogram().count(Op::kSplit0), 0u);
  EXPECT_EQ(ilp.graph.op_histogram().count(Op::kSplit1), 0u);
}

TEST(Extract, TooLargeInstanceReportsTimeout) {
  EGraph eg = shared_matmul_egraph();
  IlpExtractOptions opt;
  opt.max_instance_nodes = 1;  // force the too-large path
  const IlpExtractionResult r = extract_ilp(eg, model(), opt);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.too_large);
  EXPECT_TRUE(r.timed_out);
}

TEST(Extract, IlpNeverWorseThanGreedy) {
  EGraph eg = shared_matmul_egraph();
  const ExtractionResult greedy = extract_greedy(eg, model());
  const IlpExtractionResult ilp = extract_ilp(eg, model());
  ASSERT_TRUE(greedy.ok);
  ASSERT_TRUE(ilp.ok);
  EXPECT_LE(ilp.cost, greedy.cost + 1e-6);
}

// ---- Extraction engine (extract/engine/): decomposed vs monolithic --------

TEST(ExtractEngine, ParityOnBasicScenarios) {
  {
    Graph g;
    const Id x = g.input("x", {8, 8});
    const Id w = g.weight("w", {8, 8});
    g.add_root(g.matmul(x, w));
    EGraph eg = seed_egraph(g);
    expect_engine_parity(eg, model());
  }
  {
    EGraph eg = shared_matmul_egraph();
    expect_engine_parity(eg, model());
  }
}

TEST(ExtractEngine, ParityWithCycleConstraints) {
  // The cyclic Fig.-2-style e-graph of CycleConstraintsPreventCyclicSelection.
  Graph g;
  const Id x = g.input("x", {4, 4});
  const Id y = g.weight("y", {4, 4});
  const Id m1 = g.matmul(x, y);
  const Id m2 = g.matmul(x, m1);
  g.add_root(m2);
  EGraph eg = seed_egraph(g);
  ASSERT_TRUE(apply_fig2_rule(eg));

  IlpExtractOptions with_cycles;
  with_cycles.cycle_constraints = true;
  expect_engine_parity(eg, model(), with_cycles);

  IlpExtractOptions int_mode = with_cycles;
  int_mode.integer_topo_vars = true;
  expect_engine_parity(eg, model(), int_mode);

  // Engine alone: result is acyclic and optimal, cycle rows only on cores.
  ExtractEngineOptions opt;
  opt.cycle_constraints = true;
  const EngineExtractionResult r = extract_engine(eg, model(), opt);
  ASSERT_TRUE(r.ok);
  EXPECT_FALSE(r.cyclic_selection);
  EXPECT_GT(r.graph.topo_order().size(), 0u);
}

TEST(ExtractEngine, ParityWithFilteredNodes) {
  EGraph eg = shared_matmul_egraph();
  for (Id cls : eg.canonical_classes()) {
    const auto& nodes = eg.eclass(cls).nodes;
    for (size_t i = 0; i < nodes.size(); ++i)
      if (nodes[i].node.op == Op::kSplit0 || nodes[i].node.op == Op::kSplit1)
        eg.set_filtered(cls, i);
  }
  expect_engine_parity(eg, model());
  const EngineExtractionResult r = extract_engine(eg, model());
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.graph.op_histogram().count(Op::kSplit0), 0u);
}

TEST(ExtractEngine, GreedyMissedSharingStillFound) {
  // The engine's reductions must not presolve away the shared-subgraph win
  // the ILP exists for (paper §6.5).
  EGraph eg = shared_matmul_egraph();
  const ExtractionResult greedy = extract_greedy(eg, model());
  const EngineExtractionResult engine = extract_engine(eg, model());
  ASSERT_TRUE(greedy.ok);
  ASSERT_TRUE(engine.ok);
  EXPECT_LT(engine.cost, greedy.cost - 1e-6);
  EXPECT_GT(engine.graph.op_histogram().count(Op::kSplit), 0u);
}

TEST(ExtractEngine, StatsBreakdownFilled) {
  EGraph eg = shared_matmul_egraph();
  const EngineExtractionResult r = extract_engine(eg, model());
  ASSERT_TRUE(r.ok);
  EXPECT_GT(r.stats.classes_reachable, 0u);
  // The weight/leaf towers of the Fig. 2 graph must presolve away.
  EXPECT_GT(r.stats.classes_forced + r.stats.classes_collapsed, 0u);
  EXPECT_GT(r.stats.milp_vars_total, 0u);
  EXPECT_GE(r.stats.largest_core_vars, 1u);
  EXPECT_GE(r.stats.num_cores, 1u);
  // The engine's instance is strictly smaller than the monolithic one.
  const IlpExtractionResult mono = extract_ilp(eg, model());
  EXPECT_LT(r.stats.milp_vars_total, mono.stats.milp_vars_total);
}

TEST(ExtractEngine, RootClassFullyFilteredIsInfeasible) {
  EGraph eg = shared_matmul_egraph();
  const Id root = eg.root();
  const size_t root_nodes = eg.eclass(root).nodes.size();
  for (size_t i = 0; i < root_nodes; ++i) eg.set_filtered(root, i);

  const ExtractionResult greedy = extract_greedy(eg, model());
  EXPECT_FALSE(greedy.ok);
  const IlpExtractionResult mono = extract_ilp(eg, model());
  EXPECT_FALSE(mono.ok);
  EXPECT_EQ(mono.milp_status, MilpStatus::kInfeasible);
  const EngineExtractionResult engine = extract_engine(eg, model());
  EXPECT_FALSE(engine.ok);
  EXPECT_EQ(engine.milp_status, MilpStatus::kInfeasible);
}

TEST(ExtractEngine, UnmappableGreedyWarmStartStillSolves) {
  // Class X = { ewadd(c, c), relu(c) } where the greedy DP double-counts c
  // (it sums per child occurrence) and so picks relu, while the monolithic
  // presolve groups both e-nodes under the deduped child set {c} and keeps
  // the cheaper ewadd — the greedy warm start maps to no variable and must
  // be dropped, not crash, and both paths still reach the true optimum.
  const FixedCostModel fixed({{Op::kMatmul, 20.0}, {Op::kEwadd, 1.0},
                              {Op::kRelu, 10.0}});
  Graph g;
  const Id x = g.input("x", {8, 8});
  const Id w = g.weight("w", {8, 8});
  const Id c = g.matmul(x, w);
  g.add_root(g.ewadd(c, c));
  EGraph eg = seed_egraph(g);
  Graph g2;
  const Id x2 = g2.input("x", {8, 8});
  const Id w2 = g2.weight("w", {8, 8});
  g2.add_root(g2.relu(g2.matmul(x2, w2)));
  auto m2 = eg.add_graph(g2);
  eg.merge(eg.root(), m2.at(g2.roots()[0]));
  eg.rebuild();

  // Greedy really does take the bait: 10 + 20 < 1 + 20 + 20.
  const ExtractionResult greedy = extract_greedy(eg, fixed);
  ASSERT_TRUE(greedy.ok);
  EXPECT_NEAR(greedy.cost, 30.0, 1e-9);

  IlpExtractOptions base;
  base.rel_gap = 0.0;
  const IlpExtractionResult mono = extract_ilp(eg, fixed, base);
  ASSERT_TRUE(mono.ok);
  EXPECT_EQ(mono.milp_status, MilpStatus::kOptimal);
  EXPECT_NEAR(mono.cost, 21.0, 1e-9);  // ewadd(c,c): 1 + one shared matmul
  expect_engine_parity(eg, fixed);
}

TEST(ExtractEngine, CyclicSelectionWithoutConstraintsFallsBackToGreedy) {
  // Cyclic e-graph, no filtering, cycle_constraints off: the cyclic
  // selection is strictly cheaper under a model that makes matmul expensive
  // and the merged-path ops cheap, so the MILP optimum is cyclic and both
  // paths must fall back to the greedy graph.
  const FixedCostModel fixed({{Op::kMatmul, 1000.0}, {Op::kConcat2, 1.0},
                              {Op::kSplit, 1.0}, {Op::kSplit0, 1.0},
                              {Op::kSplit1, 1.0}});
  Graph g;
  const Id x = g.input("x", {4, 4});
  const Id y = g.weight("y", {4, 4});
  const Id m1 = g.matmul(x, y);
  const Id m2 = g.matmul(x, m1);
  g.add_root(m2);
  EGraph eg = seed_egraph(g);
  ASSERT_TRUE(apply_fig2_rule(eg));

  IlpExtractOptions base;
  base.rel_gap = 0.0;
  const IlpExtractionResult mono = extract_ilp(eg, fixed, base);
  ASSERT_TRUE(mono.ok);  // greedy fallback
  EXPECT_TRUE(mono.cyclic_selection);
  EXPECT_FALSE(mono.unbuildable_selection);
  ExtractEngineOptions engine_opt;
  engine_opt.rel_gap = 0.0;
  const EngineExtractionResult engine = extract_engine(eg, fixed, engine_opt);
  ASSERT_TRUE(engine.ok);
  EXPECT_TRUE(engine.cyclic_selection);
  EXPECT_FALSE(engine.unbuildable_selection);
  EXPECT_NEAR(engine.cost, mono.cost, 1e-9);
  EXPECT_GT(engine.graph.topo_order().size(), 0u);  // the fallback is a DAG
}

TEST(ExtractEngine, SelectionThroughMemberWithoutBoundaryIsUnbuildable) {
  // split(1, concat(a, b)) is built while its child class still has the
  // concat boundary. Merging that class with an input of the same shape
  // clears the boundary, and the input is the cheaper member, so every
  // extractor selects it under the split, which then fails Graph::try_add.
  const FixedCostModel fixed({{Op::kConcat2, 10.0}});
  Graph g;
  const Id c = g.concat(1, {g.input("a", {4, 4}), g.input("b", {4, 4})});
  const Id root = g.relu(g.split0(g.split(1, c)));
  g.add_root(root);
  EGraph eg;
  const auto m = eg.add_graph(g);
  eg.set_root(m.at(root));
  Graph flat;
  const Id ab = flat.input("ab", {4, 8});
  flat.add_root(ab);
  eg.merge(m.at(c), eg.add_graph(flat).at(ab));
  eg.rebuild();
  ASSERT_TRUE(eg.data(m.at(c)).hist.empty());

  const IlpExtractionResult mono = extract_ilp(eg, fixed);
  EXPECT_TRUE(mono.unbuildable_selection);
  EXPECT_FALSE(mono.cyclic_selection);
  const EngineExtractionResult engine = extract_engine(eg, fixed);
  EXPECT_TRUE(engine.unbuildable_selection);
  EXPECT_FALSE(engine.cyclic_selection);
  // Greedy selects the same member, so there is no graph to fall back to,
  // and the pipeline's certificate returns the input.
  EXPECT_FALSE(engine.ok);
  const TensatResult run = extract_certified(eg, g, fixed, TensatOptions{});
  EXPECT_TRUE(run.ilp.unbuildable_selection);
  EXPECT_TRUE(run.ok);
  EXPECT_EQ(run.optimized_cost, run.original_cost);
}

TEST(ExtractEngine, OversizedCoreFallsBackToLpRounding) {
  EGraph eg = shared_matmul_egraph();
  ExtractEngineOptions opt;
  opt.max_core_nodes = 1;  // forces every core through the fallback
  const EngineExtractionResult r = extract_engine(eg, model(), opt);
  ASSERT_TRUE(r.ok);
  EXPECT_FALSE(r.too_large);
  EXPECT_FALSE(r.timed_out);
  EXPECT_GE(r.stats.fallback_cores, 1u);
  // Feasible selection, never worse than the greedy warm start, with a
  // certified gap against the root LP bound.
  const ExtractionResult greedy = extract_greedy(eg, model());
  ASSERT_TRUE(greedy.ok);
  EXPECT_LE(r.cost, greedy.cost + 1e-9);
  EXPECT_GE(r.cost, r.best_bound - 1e-6);
  EXPECT_GE(r.stats.gap, 0.0);
  EXPECT_LT(r.stats.gap, kInf);
}

TEST(ExtractEngine, SolvesInstanceMonolithicRejectsAsTooLarge) {
  // Many independent shared-matmul motifs: the monolithic instance grows
  // with the motif count while the engine's largest core stays the size of
  // one motif.
  Graph g;
  for (int grp = 0; grp < 6; ++grp) {
    const Id x = g.input("x" + std::to_string(grp), {64, 256});
    const Id w1 = g.weight("w1_" + std::to_string(grp), {256, 256});
    const Id w2 = g.weight("w2_" + std::to_string(grp), {256, 256});
    g.add_root(g.matmul(x, w1));
    g.add_root(g.matmul(x, w2));
  }
  EGraph eg = seed_egraph(g);
  ASSERT_TRUE(apply_fig2_rule(eg));

  // Cap chosen between the largest engine core and the monolithic instance.
  const IlpExtractionResult probe = extract_ilp(eg, model());
  const EngineExtractionResult engine_probe = extract_engine(eg, model());
  ASSERT_TRUE(engine_probe.ok);
  ASSERT_LT(engine_probe.stats.largest_core_vars, probe.stats.milp_vars_total);

  IlpExtractOptions mono_opt;
  mono_opt.max_instance_nodes = engine_probe.stats.largest_core_vars;
  const IlpExtractionResult mono = extract_ilp(eg, model(), mono_opt);
  EXPECT_FALSE(mono.ok);
  EXPECT_TRUE(mono.too_large);

  ExtractEngineOptions engine_opt;
  engine_opt.max_core_nodes = engine_probe.stats.largest_core_vars;
  const EngineExtractionResult engine = extract_engine(eg, model(), engine_opt);
  ASSERT_TRUE(engine.ok);
  EXPECT_FALSE(engine.too_large);
  EXPECT_GT(engine.stats.num_cores, 1u);
  EXPECT_NEAR(engine.cost, probe.cost, 1e-6);

  // An explicit thread count forces the pooled per-core solve path even on
  // small instances (the dispatch gate only applies to the default) — the
  // sanitizer jobs exercise the parallel fan-out through this.
  ExtractEngineOptions pooled_opt = engine_opt;
  pooled_opt.core_threads = 3;
  const EngineExtractionResult pooled = extract_engine(eg, model(), pooled_opt);
  ASSERT_TRUE(pooled.ok);
  EXPECT_NEAR(pooled.cost, engine.cost, 1e-9);
  EXPECT_EQ(pooled.stats.num_cores, engine.stats.num_cores);
}

/// `groups` inputs, each feeding `per_group` matmuls with distinct weights:
/// every same-input pair matches the shared-operand multi-pattern rules.
Graph shared_matmuls(int groups, int per_group) {
  Graph g;
  for (int grp = 0; grp < groups; ++grp) {
    const Id x = g.input("x" + std::to_string(grp), {64, 64});
    for (int i = 0; i < per_group; ++i) {
      const Id w =
          g.weight("w" + std::to_string(grp) + "_" + std::to_string(i), {64, 64});
      g.add_root(g.matmul(x, w));
    }
  }
  return g;
}

TEST(ExtractEngine, ParityWithMonolithicOnExploredModels) {
  // Explored, cycle-filtered model e-graphs whose engine instances keep
  // real MILP cores after the reductions (1, 1 and 6 cores; the largest
  // 154, 447 and 217 variables), which the filtered-acyclic fuzz regime of
  // extract_fuzz_test never forms. Both solvers stop at the default 1e-3
  // MIP gap, so their costs may differ by up to 2e-3 relative.
  struct Case {
    const char* name;
    Graph graph;
    size_t node_limit;
  };
  const Case cases[] = {
      {"BERT(1,16,64)", make_bert(1, 16, 64), 400},
      {"NasRNN(1,8,64)", make_nasrnn(1, 8, 64), 800},
      {"SharedMM(6x8)", shared_matmuls(6, 8), 2500},
  };
  for (const Case& c : cases) {
    TensatOptions opt;
    opt.k_max = 2;
    opt.k_multi = 1;
    opt.node_limit = c.node_limit;
    EGraph eg = seed_egraph(c.graph);
    run_exploration(eg, default_rules(), opt);

    // The clock only catches a hung solve: both solvers finish within a
    // second in Release, but the sanitizer builds run them 10-50x slower
    // (BERT's engine solve takes ~15 s under TSan).
    IlpExtractOptions ilp_opt;
    ilp_opt.time_limit_s = 120.0;
    const IlpExtractionResult mono = extract_ilp(eg, model(), ilp_opt);
    ExtractEngineOptions engine_opt;
    static_cast<IlpExtractOptions&>(engine_opt) = ilp_opt;
    const EngineExtractionResult engine = extract_engine(eg, model(), engine_opt);
    ASSERT_TRUE(mono.ok && !mono.timed_out) << c.name;
    ASSERT_TRUE(engine.ok && !engine.timed_out) << c.name;
    EXPECT_GE(engine.stats.num_cores, 1u) << c.name;
    EXPECT_NEAR(engine.cost, mono.cost, std::max(1e-6, 2e-3 * std::abs(mono.cost)))
        << c.name;
  }
}

TEST(ExtractEngine, OptimizerRoutesThroughEngine) {
  Graph g;
  const Id x = g.input("x", {64, 512});
  const Id w1 = g.weight("w1", {512, 512});
  const Id w2 = g.weight("w2", {512, 512});
  g.add_root(g.matmul(x, w1));
  g.add_root(g.matmul(x, w2));
  TensatOptions options;
  options.k_max = 4;
  options.k_multi = 1;
  options.node_limit = 2000;
  const TensatResult run = optimize(g, default_rules(), model(), options);
  ASSERT_TRUE(run.ok);
  EXPECT_GT(run.ilp.stats.classes_reachable, 0u);

  // Exploration is deterministic, so the engine run directly on an
  // identically explored e-graph must reproduce optimize()'s extraction.
  EGraph eg = seed_egraph(g);
  run_exploration(eg, default_rules(), options);
  const EngineExtractionResult direct = extract_engine(eg, model(), options.ilp);
  ASSERT_TRUE(direct.ok);
  EXPECT_NEAR(run.ilp.cost, direct.cost, 1e-9);
  EXPECT_EQ(run.ilp.stats.milp_vars_total, direct.stats.milp_vars_total);
  EXPECT_EQ(run.ilp.stats.num_cores, direct.stats.num_cores);
}

// ---- Greedy extraction against an exact oracle ----------------------------

/// The greedy oracle: every class's cheapest best-subtree cost, by resweeping
/// every e-node of every class until nothing changes — no tolerance, and no
/// dependence on the sweep order. Indexed by canonical id; kInf for a class
/// with no finite option.
std::vector<double> greedy_oracle(const EGraph& eg, const CostModel& m) {
  std::vector<double> best(eg.num_ids(), kInf);
  const std::vector<Id> classes = eg.canonical_classes();
  for (bool changed = true; changed;) {
    changed = false;
    for (Id cls : classes) {
      for (const EClassNode& e : eg.eclass(cls).nodes) {
        if (e.filtered) continue;
        double total = enode_cost(eg, cls, e.node, m);
        for (Id c : e.node.children) total += best[eg.find(c)];
        if (total < best[cls]) {
          best[cls] = total;
          changed = true;
        }
      }
    }
  }
  return best;
}

/// Cost of a concrete graph unfolded into a tree: a node reached along k
/// paths is paid k times, which is what greedy extraction minimizes.
double tree_cost(const Graph& g, const CostModel& m) {
  std::vector<double> cost(g.size(), 0.0);
  for (Id id : g.topo_order()) {
    const TNode& n = g.node(id);
    std::vector<const ValueInfo*> inputs;
    for (Id c : n.children) inputs.push_back(&g.info(c));
    cost[id] = node_cost(m, n, inputs, g.info(id));
    for (Id c : n.children) cost[id] += cost[c];
  }
  return cost[g.roots().at(0)];
}

/// extract_greedy agrees with the oracle: the greedy graph's tree cost is
/// the oracle's root cost, every e-node it selected attains the oracle
/// minimum of its class, and a second call extracts the same graph.
void expect_greedy_matches_oracle(const EGraph& eg, const CostModel& m,
                                  const std::string& label) {
  const std::vector<double> best = greedy_oracle(eg, m);
  const ExtractionResult greedy = extract_greedy(eg, m);
  ASSERT_EQ(greedy.ok, best[eg.root()] < kInf) << label;
  if (!greedy.ok) return;
  const auto tol = [](double cost) { return 1e-9 * std::max(1.0, std::abs(cost)); };
  EXPECT_NEAR(tree_cost(greedy.graph, m), best[eg.root()], tol(best[eg.root()]))
      << label;
  // Map each graph node back to the e-class of the e-node it was built from.
  std::vector<Id> cls_of(greedy.graph.size(), kInvalidId);
  for (Id id : greedy.graph.topo_order()) {
    TNode enode = greedy.graph.node(id);
    for (Id& c : enode.children) c = cls_of[c];
    const std::optional<Id> cls = eg.lookup(enode);
    ASSERT_TRUE(cls.has_value()) << label;
    double total = enode_cost(eg, *cls, enode, m);
    for (Id c : enode.children) total += best[c];
    EXPECT_NEAR(total, best[*cls], tol(best[*cls]))
        << label << ": " << op_info(enode.op).name << " in class " << *cls;
    cls_of[id] = *cls;
  }
  EXPECT_EQ(cls_of[greedy.graph.roots().at(0)], eg.root()) << label;
  EXPECT_EQ(extract_greedy(eg, m).graph.canonical_key(), greedy.graph.canonical_key())
      << label;
}

TEST(GreedyOracle, TinyModels) {
  // Explored as Optimizer.GreedyCostsPinnedOnTinyModels explores them.
  for (const ModelInfo& info : tiny_models()) {
    TensatOptions opt;
    opt.k_max = 3;
    opt.k_multi = 1;
    opt.node_limit = 3000;
    EGraph eg = seed_egraph(info.graph);
    run_exploration(eg, default_rules(), opt);
    expect_greedy_matches_oracle(eg, model(), info.name);
  }
}

TEST(GreedyOracle, RandomEGraphs) {
  // Fixed costs make exact ties common (a free sigmoid even closes
  // zero-cost cycles) and near-ties a small fraction apart; the T4 model
  // makes both rare.
  const FixedCostModel fixed({{Op::kMatmul, 3.0}, {Op::kEwadd, 1.0},
                              {Op::kEwmul, 1.125}, {Op::kRelu, 0.5},
                              {Op::kTanh, 0.625}, {Op::kSigmoid, 0.0}});
  TensatOptions explore;
  explore.k_max = 2;
  explore.k_multi = 1;
  explore.node_limit = 500;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed * 0x9e3779b97f4a7c15ull);
    const Graph g = random_graph(rng);
    // The fuzz harness's instance: random merges (cycles possible) and
    // random filtering. Its merges collapse most graphs to a few classes,
    // so the same graph is also explored by the real rules, which leaves a
    // choice in many classes, and a few merges on top bring cycles back.
    EGraph fuzzed = seed_egraph(g);
    random_merges(fuzzed, rng, static_cast<int>(rng.range(0, 10)));
    random_filtering(fuzzed, rng, static_cast<int>(rng.range(0, 4)));
    EGraph explored = seed_egraph(g);
    run_exploration(explored, default_rules(), explore);
    random_merges(explored, rng, static_cast<int>(rng.range(0, 3)));
    const std::string label = "seed " + std::to_string(seed);
    for (const EGraph* eg : {&fuzzed, &explored}) {
      const std::string which = eg == &fuzzed ? " fuzzed" : " explored";
      expect_greedy_matches_oracle(*eg, model(), label + which + " t4");
      expect_greedy_matches_oracle(*eg, fixed, label + which + " fixed");
    }
  }
}

TEST(GreedyOracle, ZeroCostTieToAncestorStaysAcyclic) {
  // A weight w merged with transpose(transpose(w)): class W = {transpose(T),
  // w} and T = {transpose(W)}. Weight-only values are precomputed, so both
  // options of W cost 0 and the cyclic one comes first in class order —
  // "first e-node attaining the minimum" alone would select W -> T -> W.
  Graph g;
  const Id x = g.input("x", {2, 4});
  const Id w = g.weight("w", {4, 8});
  const Id t = g.transpose(w, {1, 0});
  const Id tt = g.transpose(t, {1, 0});
  const Id root = g.matmul(x, tt);
  g.add_root(root);
  EGraph eg;
  const auto ids = eg.add_graph(g);
  eg.set_root(ids.at(root));
  eg.merge(ids.at(tt), ids.at(w));
  eg.rebuild();
  const EClass& weight_class = eg.eclass(ids.at(w));
  ASSERT_EQ(weight_class.nodes.size(), 2u);
  ASSERT_EQ(weight_class.nodes[0].node.op, Op::kTranspose);
  const std::vector<double> best = greedy_oracle(eg, model());
  EXPECT_EQ(best[eg.find(ids.at(w))], 0.0);
  EXPECT_EQ(best[eg.find(ids.at(t))], 0.0);

  const ExtractionResult greedy = extract_greedy(eg, model());
  ASSERT_TRUE(greedy.ok);  // a cyclic selection would not build
  EXPECT_EQ(greedy.graph.op_histogram().count(Op::kTranspose), 0u);
  Graph direct;
  direct.add_root(direct.matmul(direct.input("x", {2, 4}), direct.weight("w", {4, 8})));
  EXPECT_EQ(greedy.graph.canonical_key(), direct.canonical_key());
  expect_greedy_matches_oracle(eg, model(), "transpose tie");
}

TEST(GreedyOracle, NegativeNodeCostIsRejected) {
  // Settling classes in nondecreasing cost order is only sound for node
  // costs >= 0, so greedy refuses a negative one instead of answering.
  const FixedCostModel fixed({{Op::kRelu, -1.0}});
  Graph g;
  g.add_root(g.relu(g.input("x", {8, 8})));
  EGraph eg = seed_egraph(g);
  EXPECT_THROW(extract_greedy(eg, fixed), Error);
}

}  // namespace
}  // namespace tensat
