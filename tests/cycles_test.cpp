#include <gtest/gtest.h>

#include "cycles/cycles.h"
#include "lang/parse.h"
#include "rewrite/matcher.h"
#include "rewrite/rules.h"

namespace tensat {
namespace {

struct Fixture {
  Graph g;
  EGraph eg;
  std::unordered_map<Id, Id> mapping;
  explicit Fixture(const std::function<void(Graph&)>& build) {
    build(g);
    mapping = eg.add_graph(g);
  }
  Id cls(Id gid) const { return eg.find(mapping.at(gid)); }
};

TEST(Descendants, DirectAndTransitive) {
  Fixture f([](Graph& g) {
    const Id a = g.input("a", {2, 2});
    const Id r = g.relu(a);
    g.add_root(g.tanh(r));
  });
  const DescendantsMap d(f.eg);
  Graph& g = f.g;
  const Id a = g.input("a", {2, 2});
  const Id r = g.relu(a);
  const Id t = g.tanh(r);
  EXPECT_TRUE(d.reaches(f.cls(t), f.cls(r)));
  EXPECT_TRUE(d.reaches(f.cls(t), f.cls(a)));  // transitive
  EXPECT_TRUE(d.reaches(f.cls(r), f.cls(a)));
  EXPECT_FALSE(d.reaches(f.cls(a), f.cls(t)));
  EXPECT_FALSE(d.reaches(f.cls(a), f.cls(a)));  // not reflexive
}

TEST(Descendants, SharedSubgraph) {
  Fixture f([](Graph& g) {
    const Id a = g.input("a", {2, 2});
    g.add_root(g.ewadd(g.relu(a), g.tanh(a)));
  });
  const DescendantsMap d(f.eg);
  Graph& g = f.g;
  const Id a = g.input("a", {2, 2});
  const Id add = g.ewadd(g.relu(a), g.tanh(a));
  EXPECT_TRUE(d.reaches(f.cls(add), f.cls(a)));
}

TEST(Cycles, AcyclicInitially) {
  Fixture f([](Graph& g) {
    const Id a = g.input("a", {2, 2});
    g.add_root(g.relu(g.tanh(a)));
  });
  EXPECT_TRUE(is_acyclic(f.eg));
  EXPECT_EQ(filter_cycles(f.eg), 0u);
}

TEST(Cycles, MergeWouldCreateCycleDetected) {
  // Merging a class with its own ancestor closes a cycle.
  Fixture f([](Graph& g) {
    const Id a = g.input("a", {2, 2});
    g.add_root(g.relu(g.tanh(a)));
  });
  Graph& g = f.g;
  const Id a = g.input("a", {2, 2});
  const Id t = g.tanh(a);
  const Id r = g.relu(t);
  EXPECT_TRUE(merge_would_create_cycle(f.eg, f.cls(a), f.cls(r)));
  EXPECT_TRUE(merge_would_create_cycle(f.eg, f.cls(r), f.cls(a)));
  EXPECT_TRUE(merge_would_create_cycle(f.eg, f.cls(t), f.cls(r)));
  // Merging siblings does not.
  Graph h;
  const Id a2 = h.input("a", {2, 2});
  h.add_root(h.sigmoid(a2));
  auto m2 = f.eg.add_graph(h);
  EXPECT_FALSE(merge_would_create_cycle(f.eg, f.cls(t), f.eg.find(m2.at(h.roots()[0]))));
}

TEST(Cycles, FilterBreaksIntroducedCycle) {
  // Make the e-graph cyclic by merging x with relu(x), then filter.
  Fixture f([](Graph& g) {
    const Id x = g.input("x", {2, 2});
    g.add_root(g.relu(x));
  });
  Graph& g = f.g;
  const Id x = g.input("x", {2, 2});
  const Id r = g.relu(x);
  f.eg.merge(f.cls(x), f.cls(r));
  f.eg.rebuild();
  EXPECT_FALSE(is_acyclic(f.eg));
  const size_t filtered = filter_cycles(f.eg);
  EXPECT_GE(filtered, 1u);
  EXPECT_TRUE(is_acyclic(f.eg));
  EXPECT_EQ(f.eg.num_filtered(), filtered);
}

TEST(Cycles, FilterPrefersLastAddedNode) {
  // The cycle-closing node added LAST should be the one filtered, keeping
  // the original program extractable.
  Fixture f([](Graph& g) {
    const Id x = g.input("x", {2, 2});
    g.add_root(g.relu(x));
  });
  Graph& g = f.g;
  const Id x = g.input("x", {2, 2});
  const Id r = g.relu(x);
  // Add tanh(r) into x's class (an equality x = tanh(relu(x))): cyclic.
  TNode t{Op::kTanh, 0, {}, {f.cls(r)}};
  const Id tcls = f.eg.add(std::move(t));
  f.eg.merge(f.cls(x), tcls);
  f.eg.rebuild();
  ASSERT_FALSE(is_acyclic(f.eg));
  filter_cycles(f.eg);
  EXPECT_TRUE(is_acyclic(f.eg));
  // The original input and relu nodes must survive; the late tanh is the
  // filtered one.
  bool tanh_filtered = false, relu_filtered = false;
  for (Id cls : f.eg.canonical_classes()) {
    for (const EClassNode& e : f.eg.eclass(cls).nodes) {
      if (e.node.op == Op::kTanh && e.filtered) tanh_filtered = true;
      if (e.node.op == Op::kRelu && e.filtered) relu_filtered = true;
    }
  }
  EXPECT_TRUE(tanh_filtered);
  EXPECT_FALSE(relu_filtered);
}

TEST(Cycles, PaperFig3Scenario) {
  // The paper's Fig. 3: applying the concat/split multi-pattern rule to two
  // matmuls where one consumes the other creates a cycle in the e-graph.
  Graph g;
  const Id x = g.input("x", {4, 4});
  const Id y = g.weight("y", {4, 4});
  const Id m1 = g.matmul(x, y);       // matmul(x, y)
  const Id m2 = g.matmul(x, m1);      // matmul(x, matmul(x, y)) — shares x
  g.add_root(m2);
  EGraph eg;
  auto mapping = eg.add_graph(g);
  eg.set_root(mapping.at(m2));

  const Rewrite rule = make_rewrite(
      "fig2",
      "(matmul ?act ?a ?b) (matmul ?act ?a ?c)",
      "(split0 (split 1 (matmul ?act ?a (concat2 1 ?b ?c)))) "
      "(split1 (split 1 (matmul ?act ?a (concat2 1 ?b ?c))))");
  // Find the (m1, m2) match pair and apply it without any cycle filtering.
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
  ASSERT_TRUE(applied);
  EXPECT_FALSE(is_acyclic(eg));  // the paper's cycle
  filter_cycles(eg);
  EXPECT_TRUE(is_acyclic(eg));
}

TEST(Cycles, DescendantsSnapshotIsStable) {
  Fixture f([](Graph& g) {
    const Id a = g.input("a", {2, 2});
    const Id b = g.input("b", {2, 2});
    g.add_root(g.relu(a));
    g.add_root(g.tanh(b));
  });
  Graph& g = f.g;
  const Id a = f.cls(g.input("a", {2, 2}));
  const Id b = f.cls(g.input("b", {2, 2}));
  const Id relu = f.cls(g.relu(g.input("a", {2, 2})));
  const Id tanh = f.cls(g.tanh(g.input("b", {2, 2})));
  // Merge the inputs and rebuild: one of the two ids is no longer canonical.
  f.eg.merge(a, b);
  f.eg.rebuild();
  const Id kept = f.eg.find(a);
  const Id merged_away = kept == a ? b : a;
  ASSERT_NE(f.eg.find(merged_away), merged_away);

  const DescendantsMap d(f.eg);
  EXPECT_TRUE(d.reaches(relu, kept));
  EXPECT_TRUE(d.reaches(tanh, kept));
  // A merged-away id is not a row of the snapshot: false, even though its
  // class is reachable.
  EXPECT_FALSE(d.reaches(relu, merged_away));
  EXPECT_FALSE(d.reaches(merged_away, kept));
  // Unknown (later) ids and negative ids just return false instead of
  // crashing.
  EXPECT_FALSE(d.reaches(9999, 0));
  EXPECT_FALSE(d.reaches(0, 9999));
  EXPECT_FALSE(d.reaches(kInvalidId, kept));
  EXPECT_FALSE(d.reaches(relu, -7));
}

}  // namespace
}  // namespace tensat
