#include <gtest/gtest.h>

#include <cmath>

#include "lang/parse.h"
#include "models/models.h"
#include "support/check.h"
#include "tensor/interp.h"

namespace tensat {
namespace {

TEST(Interp, EvaluatesSimpleExpression) {
  Graph g;
  const Id a = g.input("a", {2, 2});
  const Id b = g.input("b", {2, 2});
  g.add_root(g.ewadd(a, b));
  Interpreter interp(1);
  Tensor ta({2, 2}, {1, 2, 3, 4});
  Tensor tb({2, 2}, {10, 20, 30, 40});
  interp.feed("a", ta);
  interp.feed("b", tb);
  const auto out = interp.run_roots(g);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FLOAT_EQ(out[0].at2(1, 1), 44.0f);
}

TEST(Interp, SynthesizesUnfedInputsDeterministically) {
  Graph g;
  const Id a = g.input("a", {3, 3});
  g.add_root(g.relu(a));
  Interpreter i1(7), i2(7), i3(8);
  const Tensor o1 = i1.run_roots(g)[0];
  const Tensor o2 = i2.run_roots(g)[0];
  const Tensor o3 = i3.run_roots(g)[0];
  EXPECT_LT(Tensor::max_abs_diff(o1, o2), 1e-12);
  EXPECT_GT(Tensor::max_abs_diff(o1, o3), 1e-4);
}

TEST(Interp, SameIdentifierSameData) {
  // Two references to input "x" see the same tensor: x - x == 0 ... here
  // checked via ewadd(x, x) == 2x.
  Graph g;
  const Id x = g.input("x", {2, 2});
  g.add_root(g.ewadd(x, x));
  Interpreter interp(3);
  const Tensor out = interp.run_roots(g)[0];
  Graph g2;
  const Id x2 = g2.input("x", {2, 2});
  g2.add_root(x2);
  const Tensor raw = Interpreter(3).run_roots(g2)[0];
  for (int64_t i = 0; i < raw.volume(); ++i)
    EXPECT_FLOAT_EQ(out.data()[i], 2.0f * raw.data()[i]);
}

TEST(Interp, SplitUsesAnalysisBoundary) {
  Graph g;
  const Id a = g.input("a", {2, 3});
  const Id b = g.input("b", {2, 5});
  const Id sp = g.split(1, g.concat(1, {a, b}));
  g.add_root(g.split0(sp));
  g.add_root(g.split1(sp));
  Interpreter interp(5);
  const auto out = interp.run_roots(g);
  Graph ga;
  ga.add_root(ga.input("a", {2, 3}));
  Graph gb;
  gb.add_root(gb.input("b", {2, 5}));
  EXPECT_LT(Tensor::max_abs_diff(out[0], Interpreter(5).run_roots(ga)[0]), 1e-7);
  EXPECT_LT(Tensor::max_abs_diff(out[1], Interpreter(5).run_roots(gb)[0]), 1e-7);
}

TEST(Interp, MatmulChain) {
  Graph g;
  const Id x = g.input("x", {2, 3});
  const Id w1 = g.weight("w1", {3, 4});
  const Id w2 = g.weight("w2", {4, 2});
  g.add_root(g.matmul(g.matmul(x, w1), w2));
  const Tensor out = Interpreter(1).run_roots(g)[0];
  EXPECT_EQ(out.dims(), (std::vector<int32_t>{2, 2}));
}

TEST(Interp, FeedShapeMismatchThrows) {
  Graph g;
  g.add_root(g.input("a", {2, 2}));
  Interpreter interp;
  interp.feed("a", Tensor({3, 3}));
  EXPECT_THROW(interp.run_roots(g), Error);
}

TEST(Interp, MergeRejected) {
  Graph g;
  const Id w = g.weight("w", {4, 2, 3, 3});
  g.add_root(g.merge(w, 2));
  EXPECT_THROW(Interpreter().run(g), Error);
}

TEST(Interp, RunsEveryTinyModel) {
  for (const ModelInfo& m : tiny_models()) {
    if (m.name == "VGG-19") continue;  // large-ish; covered in models_test
    Interpreter interp(11);
    const auto values = interp.run(m.graph);
    EXPECT_GT(values.size(), 0u) << m.name;
    for (Id root : m.graph.roots()) {
      const Tensor* t = std::get_if<Tensor>(&values.at(root));
      ASSERT_NE(t, nullptr) << m.name;
      EXPECT_GT(t->volume(), 0) << m.name;
      for (float v : t->data()) EXPECT_TRUE(std::isfinite(v)) << m.name;
    }
  }
}

/// run_roots frees each value after its last reader; it must still return
/// exactly the root tensors run() computes.
void expect_run_roots_matches_run(const Graph& g, const std::string& context) {
  const auto values = Interpreter(13).run(g);
  const auto roots = Interpreter(13).run_roots(g);
  ASSERT_EQ(roots.size(), g.roots().size()) << context;
  for (size_t i = 0; i < roots.size(); ++i) {
    const Tensor* t = std::get_if<Tensor>(&values.at(g.roots()[i]));
    ASSERT_NE(t, nullptr) << context;
    EXPECT_EQ(roots[i].dims(), t->dims()) << context << " root " << i;
    EXPECT_EQ(Tensor::max_abs_diff(roots[i], *t), 0.0) << context << " root " << i;
  }
}

TEST(Interp, RunRootsFreeingMatchesRun) {
  for (const ModelInfo& m : tiny_models()) expect_run_roots_matches_run(m.graph, m.name);
  // Split tuples read by both projections, an operand used twice by one
  // node, a root that another root also reads, and a repeated root.
  Graph g;
  const Id a = g.input("a", {2, 3});
  const Id b = g.input("b", {2, 5});
  const Id sp = g.split(1, g.concat(1, {a, b}));
  const Id s0 = g.split0(sp);
  const Id s1 = g.split1(sp);
  const Id twice = g.ewadd(s0, s0);
  g.add_root(twice);
  g.add_root(g.relu(twice));
  g.add_root(g.ewmul(s1, s1));
  g.add_root(twice);
  expect_run_roots_matches_run(g, "split/repeated children");
}

}  // namespace
}  // namespace tensat
