// Cost-model properties swept across operators and sizes (TEST_P):
// monotonicity in tensor volume, launch-overhead floor, fusion economics,
// and consistency between the graph-level and e-node-level cost paths.
#include <gtest/gtest.h>

#include "cost/cost.h"
#include "egraph/egraph.h"
#include "support/rng.h"

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

// ---- Monotonicity in size, per operator family ----------------------------

class MatmulMonotone : public ::testing::TestWithParam<int> {};

TEST_P(MatmulMonotone, CostGrowsWithInnerDim) {
  const int k = 32 << GetParam();
  Graph g;
  const Id small = g.matmul(g.input("a", {64, k}), g.weight("b", {k, 64}));
  const Id large = g.matmul(g.input("c", {64, 2 * k}), g.weight("d", {2 * k, 64}));
  EXPECT_LT(cost_of(g, small), cost_of(g, large)) << "k=" << k;
}

INSTANTIATE_TEST_SUITE_P(Sizes, MatmulMonotone, ::testing::Range(0, 5));

class ConvMonotone : public ::testing::TestWithParam<int> {};

TEST_P(ConvMonotone, CostGrowsWithChannels) {
  const int c = 8 << GetParam();
  Graph g;
  const Id a = g.conv(g.input("x", {1, c, 14, 14}), g.weight("w", {c, c, 3, 3}), 1, 1);
  const Id b =
      g.conv(g.input("y", {1, 2 * c, 14, 14}), g.weight("v", {2 * c, 2 * c, 3, 3}), 1, 1);
  EXPECT_LT(cost_of(g, a), cost_of(g, b)) << "c=" << c;
}

INSTANTIATE_TEST_SUITE_P(Sizes, ConvMonotone, ::testing::Range(0, 4));

class ElementwiseMonotone : public ::testing::TestWithParam<int> {};

TEST_P(ElementwiseMonotone, CostGrowsWithVolume) {
  const int n = 64 << GetParam();
  Graph g;
  const Id a = g.ewadd(g.input("a", {n, 64}), g.input("b", {n, 64}));
  const Id b = g.ewadd(g.input("c", {2 * n, 64}), g.input("d", {2 * n, 64}));
  EXPECT_LT(cost_of(g, a), cost_of(g, b));
}

INSTANTIATE_TEST_SUITE_P(Sizes, ElementwiseMonotone, ::testing::Range(0, 4));

// ---- Launch overhead and merging economics ---------------------------------

TEST(CostEconomics, LaunchOverheadIsTheFloor) {
  // Even a 1-element op costs at least the launch overhead.
  Graph g;
  const Id tiny = g.relu(g.input("t", {1, 1}));
  EXPECT_GE(cost_of(g, tiny), 5.0 - 1e-9);
}

class MergeEconomics : public ::testing::TestWithParam<int> {};

TEST_P(MergeEconomics, OneMergedMatmulBeatsTwoAcrossSizes) {
  const int n = 64 << GetParam();
  Graph g;
  const Id x = g.input("x", {64, n});
  const double two = 2.0 * cost_of(g, g.matmul(x, g.weight("w1", {n, n})));
  const double one = cost_of(g, g.matmul(x, g.weight("w2", {n, 2 * n})));
  EXPECT_LT(one, two) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, MergeEconomics, ::testing::Range(0, 5));

TEST(CostEconomics, UtilizationSaturates) {
  // Per-flop cost decreases with size: c(2k)/c(k) < 2 for compute-bound ops.
  Graph g;
  const Id small = g.matmul(g.input("a", {256, 256}), g.weight("b", {256, 256}));
  const Id large = g.matmul(g.input("c", {256, 512}), g.weight("d", {512, 256}));
  EXPECT_LT(cost_of(g, large), 2.0 * cost_of(g, small));
}

// ---- Consistency across the two costing paths ------------------------------

class GraphVsEnodeCost : public ::testing::TestWithParam<int> {};

TEST_P(GraphVsEnodeCost, AgreeOnRandomGraphs) {
  Rng rng(111 + GetParam());
  Graph g;
  const int32_t n = static_cast<int32_t>(rng.range(8, 64));
  Id cur = g.input("x", {n, n});
  for (int i = 0; i < 5; ++i) {
    switch (rng.below(3)) {
      case 0:
        cur = g.relu(cur);
        break;
      case 1:
        cur = g.matmul(cur, g.weight("w" + std::to_string(i), {n, n}));
        break;
      default:
        cur = g.ewadd(cur, cur);
        break;
    }
  }
  g.add_root(cur);

  EGraph eg;
  auto mapping = eg.add_graph(g);
  double enode_total = 0.0;
  for (Id gid : g.topo_order())
    enode_total += enode_cost(eg, mapping.at(gid), eg.eclass(mapping.at(gid)).nodes[0].node,
                              model());
  EXPECT_NEAR(enode_total, graph_cost(g, model()), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphVsEnodeCost, ::testing::Range(0, 20));

TEST(CostEconomics, WeightPrecomputeBeatsRuntimeConcat) {
  // concat of weights: free; concat of activations: paid. This asymmetry is
  // what makes weight-side merges strictly better than activation-side ones.
  Graph g;
  const Id w = g.concat(0, {g.weight("w1", {64, 64}), g.weight("w2", {64, 64})});
  const Id a = g.concat(0, {g.input("x1", {64, 64}), g.input("x2", {64, 64})});
  EXPECT_EQ(cost_of(g, w), 0.0);
  EXPECT_GT(cost_of(g, a), 0.0);
}

}  // namespace
}  // namespace tensat
