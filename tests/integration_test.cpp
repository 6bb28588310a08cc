// End-to-end properties of the whole pipeline, including the paper's
// headline claims at unit-test scale:
//   * TENSAT's optimized graphs compute the same function as the input
//     (checked through the reference interpreter),
//   * TENSAT matches or beats the TASO baseline's cost,
//   * the full approach (efficient cycle filtering + ILP without cycle
//     constraints) produces valid DAGs.
#include <gtest/gtest.h>

#include "cycles/cycles.h"
#include "models/models.h"
#include "optimizer/optimizer.h"
#include "rewrite/rules.h"
#include "taso/search.h"
#include "tensor/interp.h"

namespace tensat {
namespace {

const T4CostModel& model() {
  static const T4CostModel m;
  return m;
}

TensatOptions quick_options() {
  TensatOptions opt;
  opt.k_max = 4;
  opt.k_multi = 1;
  opt.node_limit = 4000;
  opt.explore_time_limit_s = 20.0;
  opt.ilp.time_limit_s = 10.0;
  return opt;
}

/// Strips the trailing noop chain so interpreter outputs can be compared
/// root by root (noop carries no data).
std::vector<Id> real_roots(const Graph& g) {
  std::vector<Id> out;
  std::vector<Id> stack(g.roots().begin(), g.roots().end());
  while (!stack.empty()) {
    const Id id = stack.back();
    stack.pop_back();
    if (g.node(id).op == Op::kNoop) {
      stack.push_back(g.node(id).children[1]);
      stack.push_back(g.node(id).children[0]);
    } else {
      out.push_back(id);
    }
  }
  return out;
}

void expect_same_function(const Graph& a, const Graph& b, double tol = 1e-3) {
  Graph ga = a, gb = b;
  ga.set_roots(real_roots(ga));
  gb.set_roots(real_roots(gb));
  Interpreter ia(42), ib(42);
  const auto va = ia.run_roots(ga);
  const auto vb = ib.run_roots(gb);
  ASSERT_EQ(va.size(), vb.size());
  for (size_t i = 0; i < va.size(); ++i) {
    ASSERT_EQ(va[i].dims(), vb[i].dims()) << "output " << i;
    EXPECT_LT(Tensor::max_abs_diff(va[i], vb[i]), tol) << "output " << i;
  }
}

TEST(Integration, OptimizedBertComputesSameFunction) {
  const Graph g = make_bert(1, 8, 16);
  const TensatResult r = optimize(g, default_rules(), model(), quick_options());
  ASSERT_TRUE(r.ok);
  expect_same_function(g, r.optimized);
}

TEST(Integration, OptimizedNasrnnComputesSameFunction) {
  const Graph g = make_nasrnn(1, 2, 8);
  const TensatResult r = optimize(g, default_rules(), model(), quick_options());
  ASSERT_TRUE(r.ok);
  expect_same_function(g, r.optimized);
}

TEST(Integration, OptimizedSqueezenetComputesSameFunction) {
  const Graph g = make_squeezenet(1, 8, 8);
  const TensatResult r = optimize(g, default_rules(), model(), quick_options());
  ASSERT_TRUE(r.ok);
  expect_same_function(g, r.optimized, 5e-3);
}

TEST(Integration, OptimizedInceptionComputesSameFunction) {
  const Graph g = make_inception_v3(1, 8, 8);
  const TensatResult r = optimize(g, default_rules(), model(), quick_options());
  ASSERT_TRUE(r.ok);
  expect_same_function(g, r.optimized, 5e-3);
}

TEST(Integration, TensatAtLeastMatchesTasoOnSharedMatmuls) {
  Graph g;
  const Id x = g.input("x", {64, 256});
  for (int i = 0; i < 4; ++i)
    g.add_root(g.matmul(x, g.weight("w" + std::to_string(i), {256, 256})));

  TasoOptions taso_opt;
  taso_opt.iterations = 30;
  const TasoResult taso = taso_search(g, default_rules(), model(), taso_opt);
  // Fully merging four matmuls takes two rounds of the multi-pattern rule
  // (pairs, then pairs of pairs) — the paper's k_multi = 2 regime. The node
  // limit keeps the ILP instance small.
  TensatOptions opt = quick_options();
  opt.k_multi = 2;
  opt.node_limit = 1500;
  const TensatResult tensat = optimize(g, default_rules(), model(), opt);
  ASSERT_TRUE(tensat.ok);
  EXPECT_LE(tensat.optimized_cost, taso.best_cost + 1e-6);
  EXPECT_LT(tensat.optimized_cost, tensat.original_cost);
}

TEST(Integration, FullPipelineKeepsEGraphAcyclicAndExtractsDag) {
  EGraph eg = seed_egraph(make_bert(1, 8, 16));
  TensatOptions opt = quick_options();
  run_exploration(eg, default_rules(), opt);
  ASSERT_TRUE(is_acyclic(eg));
  const EngineExtractionResult r = extract_engine(eg, model(), opt.ilp);
  ASSERT_TRUE(r.ok);
  EXPECT_FALSE(r.cyclic_selection);
  EXPECT_GT(r.graph.topo_order().size(), 0u);
}

TEST(Integration, HigherKMultiNeverWorseCostWhenSaturating) {
  // Monotonicity in k_multi holds when exploration saturates (the k+1
  // e-graph is then a superset of the k one). Under node-budget truncation
  // it can legitimately fail — the budget split shifts (see EXPERIMENTS.md),
  // so we test the saturating regime on a small graph.
  Graph g;
  const Id x = g.input("x", {32, 128});
  g.add_root(g.matmul(x, g.weight("w1", {128, 128})));
  g.add_root(g.matmul(x, g.weight("w2", {128, 128})));
  double prev = 1e300;
  for (int k = 0; k <= 2; ++k) {
    TensatOptions opt = quick_options();
    opt.k_multi = k;
    opt.node_limit = 4000;
    const TensatResult r = optimize(g, default_rules(), model(), opt);
    ASSERT_TRUE(r.ok);
    EXPECT_LE(r.optimized_cost, prev + 1e-6) << "k_multi " << k;
    prev = r.optimized_cost;
  }
}

TEST(Integration, GreedyVsIlpTable4Shape) {
  // Paper Table 4's qualitative shape at unit scale: ILP <= greedy, and on
  // graphs with shared-subgraph rewrites the gap is strict.
  Graph g;
  const Id x = g.input("x", {64, 256});
  g.add_root(g.matmul(x, g.weight("w1", {256, 256})));
  g.add_root(g.matmul(x, g.weight("w2", {256, 256})));

  TensatOptions greedy_opt = quick_options();
  greedy_opt.extractor = ExtractorKind::kGreedy;
  const TensatResult greedy = optimize(g, default_rules(), model(), greedy_opt);
  const TensatResult ilp = optimize(g, default_rules(), model(), quick_options());
  ASSERT_TRUE(greedy.ok);
  ASSERT_TRUE(ilp.ok);
  EXPECT_LE(ilp.optimized_cost, greedy.optimized_cost + 1e-6);
  EXPECT_LT(ilp.optimized_cost, ilp.original_cost - 1e-6);
}

}  // namespace
}  // namespace tensat
