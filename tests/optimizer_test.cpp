#include <gtest/gtest.h>

#include <iterator>

#include "cycles/cycles.h"
#include "models/models.h"
#include "optimizer/optimizer.h"
#include "rewrite/rules.h"

namespace tensat {
namespace {

const T4CostModel& model() {
  static const T4CostModel m;
  return m;
}

Graph shared_matmuls(int n = 3) {
  Graph g;
  const Id x = g.input("x", {64, 256});
  for (int i = 0; i < n; ++i)
    g.add_root(g.matmul(x, g.weight("w" + std::to_string(i), {256, 256})));
  return g;
}

TEST(Optimizer, FindsMergedMatmuls) {
  TensatOptions opt;
  opt.k_max = 4;
  opt.node_limit = 4000;
  const TensatResult r = optimize(shared_matmuls(), default_rules(), model(), opt);
  ASSERT_TRUE(r.ok);
  EXPECT_LT(r.optimized_cost, r.original_cost - 1e-6);
  EXPECT_GT(r.optimized.op_histogram().count(Op::kSplit), 0u);
}

TEST(Optimizer, NeverWorseThanInput) {
  for (const ModelInfo& m : tiny_models()) {
    TensatOptions opt;
    opt.k_max = 3;
    opt.k_multi = 1;
    opt.node_limit = 3000;
    opt.explore_time_limit_s = 10.0;
    opt.ilp.time_limit_s = 5.0;
    const TensatResult r = optimize(m.graph, default_rules(), model(), opt);
    ASSERT_TRUE(r.ok) << m.name;
    EXPECT_LE(r.optimized_cost, r.original_cost + 1e-9) << m.name;
  }
}

TEST(Optimizer, SaturationOnInertGraph) {
  // A graph no rule can touch: a single convolution. Exploration saturates.
  Graph g;
  const Id x = g.input("x", {1, 3, 8, 8});
  const Id w = g.weight("w", {4, 3, 3, 3});
  g.add_root(g.conv(x, w, 1, 1, kPadSame));
  EGraph eg = seed_egraph(g);
  TensatOptions opt;
  opt.k_max = 10;
  const ExploreStats stats = run_exploration(eg, default_rules(), opt);
  EXPECT_EQ(stats.stop, StopReason::kSaturated);
  EXPECT_LE(stats.iterations, 3);
}

TEST(Optimizer, NodeLimitStopsGrowth) {
  TensatOptions opt;
  opt.k_max = 10;
  opt.k_multi = 10;
  opt.node_limit = 200;
  EGraph eg = seed_egraph(make_nasrnn(1, 4, 32));
  const ExploreStats stats = run_exploration(eg, default_rules(), opt);
  EXPECT_EQ(stats.stop, StopReason::kNodeLimit);
  // Limit is approximate (checked between applications) but can't blow past
  // by more than one application's worth of nodes.
  EXPECT_LT(stats.enodes_total, 400u);
}

TEST(Optimizer, EfficientFilterKeepsEGraphAcyclic) {
  TensatOptions opt;
  opt.k_max = 3;
  opt.k_multi = 2;
  opt.node_limit = 3000;
  opt.cycle_filter = CycleFilterMode::kEfficient;
  EGraph eg = seed_egraph(make_bert(1, 16, 32));
  run_exploration(eg, default_rules(), opt);
  EXPECT_TRUE(is_acyclic(eg));
}

TEST(Optimizer, VanillaFilterKeepsEGraphAcyclic) {
  TensatOptions opt;
  opt.k_max = 3;
  opt.k_multi = 2;
  opt.node_limit = 1500;
  opt.cycle_filter = CycleFilterMode::kVanilla;
  EGraph eg = seed_egraph(make_bert(1, 16, 32));
  run_exploration(eg, default_rules(), opt);
  EXPECT_TRUE(is_acyclic(eg));
}

TEST(Optimizer, NoFilterCanGoCyclic) {
  // Without filtering, the Fig. 3 situation arises naturally: matmuls where
  // one consumes the other plus the multi-pattern rule.
  Graph g;
  const Id x = g.input("x", {16, 16});
  const Id y = g.weight("y", {16, 16});
  const Id m1 = g.matmul(x, y);
  g.add_root(g.matmul(x, m1));
  TensatOptions opt;
  opt.k_max = 2;
  opt.k_multi = 2;
  opt.node_limit = 2000;
  opt.cycle_filter = CycleFilterMode::kNone;
  EGraph eg = seed_egraph(g);
  run_exploration(eg, default_rules(), opt);
  EXPECT_FALSE(is_acyclic(eg));
}

TEST(Optimizer, GreedyExtractorPath) {
  TensatOptions opt;
  opt.k_max = 3;
  opt.node_limit = 2000;
  opt.extractor = ExtractorKind::kGreedy;
  const TensatResult r = optimize(shared_matmuls(), default_rules(), model(), opt);
  ASSERT_TRUE(r.ok);
  EXPECT_LE(r.optimized_cost, r.original_cost + 1e-9);
}

TEST(Optimizer, KMultiZeroDisablesMultiPatternRules) {
  TensatOptions opt;
  opt.k_max = 4;
  opt.k_multi = 0;
  opt.node_limit = 4000;
  // Two matmuls sharing an input and nothing else: only multi-pattern rules
  // can merge them. With k_multi = 0 no split ops can appear.
  const TensatResult r = optimize(shared_matmuls(2), default_rules(), model(), opt);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.optimized.op_histogram().count(Op::kSplit), 0u);
}

TEST(Optimizer, MoreKMultiGrowsEGraph) {
  const Graph g = make_nasrnn(1, 8, 64);
  size_t prev_nodes = 0;
  for (int k = 0; k <= 2; ++k) {
    TensatOptions opt;
    opt.k_max = 3;
    opt.k_multi = k;
    opt.node_limit = 20000;
    EGraph eg = seed_egraph(g);
    const ExploreStats stats = run_exploration(eg, default_rules(), opt);
    EXPECT_GE(stats.enodes_total, prev_nodes);  // monotone growth in k_multi
    prev_nodes = stats.enodes_total;
  }
  EXPECT_GT(prev_nodes, 100u);
}

TEST(Optimizer, StatsAreCoherent) {
  TensatOptions opt;
  opt.k_max = 3;
  opt.node_limit = 3000;
  const TensatResult r = optimize(shared_matmuls(), default_rules(), model(), opt);
  EXPECT_GT(r.explore.enodes_total, 0u);
  EXPECT_GE(r.explore.enodes_total, r.explore.enodes);
  EXPECT_GT(r.explore.eclasses, 0u);
  EXPECT_GT(r.explore.matches_found, 0u);
  EXPECT_GE(r.explore.seconds, 0.0);
  EXPECT_GE(r.extract_seconds, 0.0);
}

TEST(Optimizer, GreedyCostsPinnedOnTinyModels) {
  // Exploration is deterministic, so the greedy-extracted cost of every tiny
  // model is a fixed number. Pinning it catches any change to the
  // exploration pipeline that alters what it finds.
  struct Pin {
    const char* model;
    double cost;
  };
  const Pin pins[] = {
      {"NasRNN", 200.0423999999999},      {"BERT", 45.029122633744862},
      {"ResNeXt-50", 30.124971193415639}, {"NasNet-A", 60.378419753086412},
      {"SqueezeNet", 30.055807407407407}, {"VGG-19", 123.82292222222222},
      {"Inception-v3", 55.074502057613159}, {"ResNet-50", 35.207940740740739},
  };
  const std::vector<ModelInfo> models = tiny_models();
  ASSERT_EQ(models.size(), std::size(pins));
  for (size_t i = 0; i < models.size(); ++i) {
    ASSERT_EQ(models[i].name, pins[i].model);
    TensatOptions opt;
    opt.k_max = 3;
    opt.k_multi = 1;
    opt.node_limit = 3000;
    EGraph eg = seed_egraph(models[i].graph);
    run_exploration(eg, default_rules(), opt);
    const ExtractionResult ext = extract_greedy(eg, model());
    ASSERT_TRUE(ext.ok) << pins[i].model;
    EXPECT_DOUBLE_EQ(ext.cost, pins[i].cost) << pins[i].model;
  }
}

}  // namespace
}  // namespace tensat
