#include <gtest/gtest.h>

#include "cost/cost.h"
#include "models/models.h"

namespace tensat {
namespace {

const T4CostModel& model() {
  static const T4CostModel m;
  return m;
}

double cost_of(const Graph& g, Id id) {
  std::vector<const ValueInfo*> inputs;
  for (Id c : g.node(id).children) inputs.push_back(&g.info(c));
  return node_cost(model(), g.node(id), inputs, g.info(id));
}

TEST(Cost, ParameterAndViewNodesFree) {
  Graph g;
  const Id a = g.input("a", {2, 3});
  const Id b = g.input("b", {2, 5});
  const Id cat = g.concat(1, {a, b});
  const Id sp = g.split(1, cat);
  EXPECT_EQ(cost_of(g, a), 0.0);
  EXPECT_EQ(cost_of(g, g.num(3)), 0.0);
  EXPECT_EQ(cost_of(g, sp), 0.0);
  EXPECT_EQ(cost_of(g, g.split0(sp)), 0.0);
  EXPECT_GT(cost_of(g, cat), 0.0);  // concat of non-weights copies data
}

TEST(Cost, WeightOnlySubgraphFree) {
  // Concat of two weights is precomputed at inference time (paper Fig. 10).
  Graph g;
  const Id w1 = g.weight("w1", {4, 4});
  const Id w2 = g.weight("w2", {4, 4});
  EXPECT_EQ(cost_of(g, g.concat(1, {w1, w2})), 0.0);
  const Id x = g.input("x", {4, 4});
  EXPECT_GT(cost_of(g, g.concat(1, {w1, x})), 0.0);
}

TEST(Cost, LaunchOverheadMakesMergingProfitable) {
  // One 64x(512->1024) matmul must be cheaper than two 64x(512->512): this
  // is the economics behind the paper's merging rewrites.
  Graph g;
  const Id x = g.input("x", {64, 512});
  const Id w1 = g.weight("w1", {512, 512});
  const Id wbig = g.weight("wb", {512, 1024});
  const double two_small = 2.0 * cost_of(g, g.matmul(x, w1));
  const double one_big = cost_of(g, g.matmul(x, wbig));
  EXPECT_LT(one_big, two_small);
}

TEST(Cost, FusedActivationCheaperThanSeparate) {
  Graph g;
  const Id x = g.input("x", {64, 512});
  const Id w = g.weight("w", {512, 512});
  const Id mm = g.matmul(x, w);
  const double separate = cost_of(g, mm) + cost_of(g, g.relu(mm));
  const double fused = cost_of(g, g.matmul(x, w, kActRelu));
  EXPECT_LT(fused, separate);
}

TEST(Cost, BiggerTensorsCostMore) {
  Graph g;
  const Id small = g.input("s", {1, 16, 14, 14});
  const Id big = g.input("b", {1, 64, 28, 28});
  const Id ws = g.weight("ws", {16, 16, 3, 3});
  const Id wb = g.weight("wb", {64, 64, 3, 3});
  EXPECT_LT(cost_of(g, g.conv(small, ws, 1, 1)), cost_of(g, g.conv(big, wb, 1, 1)));
}

TEST(Cost, GraphCostSumsReachableOnly) {
  Graph g;
  const Id x = g.input("x", {32, 32});
  const Id w = g.weight("w", {32, 32});
  const Id m = g.matmul(x, w);
  g.relu(m);  // dangling, not a root
  g.add_root(m);
  const double base = graph_cost(g, model());
  EXPECT_NEAR(base, cost_of(g, m), 1e-9);
}

TEST(Cost, SharedSubgraphCountedOnce) {
  Graph g;
  const Id x = g.input("x", {32, 32});
  const Id w = g.weight("w", {32, 32});
  const Id m = g.matmul(x, w);
  g.add_root(g.ewadd(m, m));  // m used twice but one node
  Graph g2;
  const Id x2 = g2.input("x", {32, 32});
  const Id w2 = g2.weight("w", {32, 32});
  const Id m2 = g2.matmul(x2, w2);
  g2.add_root(m2);
  const double with_add = graph_cost(g, model());
  const double just_matmul = graph_cost(g2, model());
  // Difference is exactly one ewadd, not a second matmul.
  Graph g3;
  const Id a3 = g3.input("a", {32, 32});
  const Id add3 = g3.ewadd(a3, a3);
  g3.add_root(add3);
  EXPECT_NEAR(with_add - just_matmul, cost_of(g3, add3), 1e-9);
}

TEST(Cost, EnodeCostMatchesGraphCost) {
  Graph g;
  const Id x = g.input("x", {16, 16});
  const Id w = g.weight("w", {16, 16});
  const Id m = g.matmul(x, w);
  g.add_root(m);
  EGraph eg;
  auto mapping = eg.add_graph(g);
  const Id cls = eg.find(mapping.at(m));
  const EClassNode& node = eg.eclass(cls).nodes.front();
  EXPECT_NEAR(enode_cost(eg, cls, node.node, model()), cost_of(g, m), 1e-9);
}

TEST(Cost, MeasuredRuntimePenalizesMovement) {
  auto base = std::make_shared<T4CostModel>();
  const MeasuredRuntimeModel runtime(base, /*movement_penalty=*/0.5, /*jitter=*/0.0,
                                     /*seed=*/1);
  Graph g;
  const Id a = g.input("a", {64, 64});
  const Id b = g.input("b", {64, 64});
  const Id cat = g.concat(1, {a, b});
  std::vector<const ValueInfo*> inputs = {&g.info(g.num(1)), &g.info(a), &g.info(b)};
  const double analytic = model().op_cost(g.node(cat), inputs, g.info(cat));
  const double measured = runtime.op_cost(g.node(cat), inputs, g.info(cat));
  EXPECT_GT(measured, analytic * 1.4);
}

TEST(Cost, ModelsHaveSaneCosts) {
  for (const ModelInfo& m : paper_models()) {
    const double c = graph_cost(m.graph, model());
    EXPECT_GT(c, 0.0) << m.name;
    EXPECT_LT(c, 1e9) << m.name;
  }
}

}  // namespace
}  // namespace tensat
