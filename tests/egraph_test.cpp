#include <gtest/gtest.h>

#include "egraph/egraph.h"
#include "egraph/union_find.h"
#include "lang/parse.h"
#include "support/check.h"
#include "support/rng.h"

namespace tensat {
namespace {

TEST(UnionFind, BasicOps) {
  UnionFind uf;
  const Id a = uf.make_set();
  const Id b = uf.make_set();
  const Id c = uf.make_set();
  EXPECT_NE(uf.find(a), uf.find(b));
  uf.unite(a, b);
  EXPECT_EQ(uf.find(a), uf.find(b));
  EXPECT_NE(uf.find(a), uf.find(c));
  uf.unite(b, c);
  EXPECT_EQ(uf.find(a), uf.find(c));
}

TEST(UnionFind, RandomizedInvariants) {
  Rng rng(42);
  UnionFind uf;
  constexpr int kN = 200;
  for (int i = 0; i < kN; ++i) uf.make_set();
  // Mirror with a naive labels array.
  std::vector<int> label(kN);
  for (int i = 0; i < kN; ++i) label[i] = i;
  for (int step = 0; step < 500; ++step) {
    const Id a = static_cast<Id>(rng.below(kN));
    const Id b = static_cast<Id>(rng.below(kN));
    uf.unite(a, b);
    const int la = label[a], lb = label[b];
    if (la != lb)
      for (int& l : label)
        if (l == lb) l = la;
    // Spot-check equivalence agreement.
    const Id x = static_cast<Id>(rng.below(kN));
    const Id y = static_cast<Id>(rng.below(kN));
    EXPECT_EQ(uf.find(x) == uf.find(y), label[x] == label[y]);
  }
}

Graph simple_graph() {
  Graph g;
  const Id a = g.input("a", {2, 2});
  const Id b = g.weight("b", {2, 2});
  g.add_root(g.ewadd(g.matmul(a, b), a));
  return g;
}

TEST(EGraph, AddGraphDeduplicates) {
  Graph g = simple_graph();
  EGraph eg;
  auto mapping = eg.add_graph(g);
  // Re-adding maps to the same classes and adds nothing.
  const size_t before = eg.num_enodes_total();
  auto mapping2 = eg.add_graph(g);
  EXPECT_EQ(eg.num_enodes_total(), before);
  for (const auto& [gid, cls] : mapping) EXPECT_EQ(eg.find(cls), eg.find(mapping2.at(gid)));
}

TEST(EGraph, AnalysisDataMatchesGraphInfo) {
  Graph g = simple_graph();
  EGraph eg;
  auto mapping = eg.add_graph(g);
  for (const auto& [gid, cls] : mapping) {
    EXPECT_EQ(eg.data(cls).shape, g.info(gid).shape);
    EXPECT_EQ(eg.data(cls).kind, g.info(gid).kind);
  }
}

TEST(EGraph, TryAddShapeCheckFails) {
  EGraph eg;
  Graph g;
  const Id a = g.input("a", {2, 3});
  const Id b = g.input("b", {3, 4});
  auto mapping = eg.add_graph([&] {
    g.add_root(a);
    g.add_root(b);
    return g;
  }());
  TNode bad{Op::kEwadd, 0, {}, {mapping.at(a), mapping.at(b)}};
  EXPECT_FALSE(eg.try_add(bad).has_value());
}

TEST(EGraph, MergeUnionsClasses) {
  Graph g;
  const Id a = g.input("a", {2, 2});
  const Id r1 = g.relu(a);
  const Id r2 = g.sigmoid(a);
  g.add_root(r1);
  g.add_root(r2);
  EGraph eg;
  auto mapping = eg.add_graph(g);
  EXPECT_TRUE(eg.merge(mapping.at(r1), mapping.at(r2)));
  EXPECT_FALSE(eg.merge(mapping.at(r1), mapping.at(r2)));  // already merged
  eg.rebuild();
  EXPECT_EQ(eg.find(mapping.at(r1)), eg.find(mapping.at(r2)));
  EXPECT_EQ(eg.eclass(mapping.at(r1)).nodes.size(), 2u);
}

TEST(EGraph, CongruenceClosure) {
  // If a == b then f(a) == f(b) after rebuild.
  Graph g;
  const Id a = g.input("a", {2, 2});
  const Id b = g.input("b", {2, 2});
  const Id fa = g.relu(a);
  const Id fb = g.relu(b);
  g.add_root(fa);
  g.add_root(fb);
  EGraph eg;
  auto mapping = eg.add_graph(g);
  EXPECT_NE(eg.find(mapping.at(fa)), eg.find(mapping.at(fb)));
  eg.merge(mapping.at(a), mapping.at(b));
  eg.rebuild();
  EXPECT_EQ(eg.find(mapping.at(fa)), eg.find(mapping.at(fb)));
}

TEST(EGraph, TransitiveCongruence) {
  // g(f(a)) == g(f(b)) requires two congruence steps.
  Graph g;
  const Id a = g.input("a", {2, 2});
  const Id b = g.input("b", {2, 2});
  const Id ga = g.tanh(g.relu(a));
  const Id gb = g.tanh(g.relu(b));
  g.add_root(ga);
  g.add_root(gb);
  EGraph eg;
  auto mapping = eg.add_graph(g);
  eg.merge(mapping.at(a), mapping.at(b));
  eg.rebuild();
  EXPECT_EQ(eg.find(mapping.at(ga)), eg.find(mapping.at(gb)));
}

TEST(EGraph, HashconsCanonicalAfterRebuild) {
  Graph g;
  const Id a = g.input("a", {2, 2});
  const Id b = g.input("b", {2, 2});
  const Id fa = g.relu(a);
  g.add_root(fa);
  g.add_root(b);
  EGraph eg;
  auto mapping = eg.add_graph(g);
  eg.merge(mapping.at(a), mapping.at(b));
  eg.rebuild();
  // Adding relu(b) must hit the same class as relu(a).
  TNode rb{Op::kRelu, 0, {}, {eg.find(mapping.at(b))}};
  EXPECT_EQ(eg.find(eg.add(std::move(rb))), eg.find(mapping.at(fa)));
}

TEST(EGraph, MergePreservesWeightOnlyUnion) {
  Graph g;
  const Id x = g.input("x", {2, 2});
  const Id w = g.weight("w", {2, 2});
  const Id rx = g.relu(x);
  const Id rw = g.relu(w);
  g.add_root(rx);
  g.add_root(rw);
  EGraph eg;
  auto mapping = eg.add_graph(g);
  EXPECT_FALSE(eg.data(mapping.at(rx)).weight_only);
  EXPECT_TRUE(eg.data(mapping.at(rw)).weight_only);
  eg.merge(mapping.at(rx), mapping.at(rw));
  eg.rebuild();
  EXPECT_TRUE(eg.data(mapping.at(rx)).weight_only);
}

TEST(EGraph, MergeShapeMismatchThrows) {
  Graph g;
  const Id a = g.input("a", {2, 2});
  const Id b = g.input("b", {3, 3});
  g.add_root(a);
  g.add_root(b);
  EGraph eg;
  auto mapping = eg.add_graph(g);
  EXPECT_THROW(eg.merge(mapping.at(a), mapping.at(b)), Error);
}

TEST(EGraph, VersionBumpsOnChange) {
  Graph g = simple_graph();
  EGraph eg;
  auto mapping = eg.add_graph(g);
  const uint64_t v = eg.version();
  TNode n{Op::kRelu, 0, {}, {eg.find(mapping.begin()->second)}};
  // Adding a genuinely new node bumps; re-adding does not.
  Graph g2;
  const Id a2 = g2.input("a", {2, 2});
  g2.add_root(g2.tanh(a2));
  eg.add_graph(g2);
  EXPECT_GT(eg.version(), v);
  const uint64_t v2 = eg.version();
  eg.add_graph(g2);
  EXPECT_EQ(eg.version(), v2);
  (void)n;
}

TEST(EGraph, FilteredNodesExcludedFromCounts) {
  Graph g = simple_graph();
  EGraph eg;
  eg.add_graph(g);
  const size_t before = eg.num_enodes();
  // Filter one node of some class.
  const Id cls = eg.canonical_classes().front();
  eg.set_filtered(cls, 0);
  EXPECT_EQ(eg.num_enodes(), before - 1);
  EXPECT_EQ(eg.num_filtered(), 1u);
  // Total count (paper's #enodes) unchanged.
  EXPECT_EQ(eg.num_enodes_total(), before);
}

TEST(EGraph, DuplicateNodesCollapseOnMerge) {
  // Classes {relu(a)} and {relu(b)} where a==b merge into one class whose
  // two congruent nodes deduplicate during rebuild.
  Graph g;
  const Id a = g.input("a", {2, 2});
  const Id b = g.input("b", {2, 2});
  const Id fa = g.relu(a);
  const Id fb = g.relu(b);
  g.add_root(fa);
  g.add_root(fb);
  EGraph eg;
  auto mapping = eg.add_graph(g);
  eg.merge(mapping.at(a), mapping.at(b));
  eg.rebuild();
  EXPECT_EQ(eg.eclass(mapping.at(fa)).nodes.size(), 1u);
}

TEST(EGraph, CongruentNodesOfOneClassDeduplicate) {
  // The class {relu(a), relu(b)} already holds both nodes when a and b
  // merge. repair() then finds the two relu nodes congruent, with no
  // classes left to merge, and rebuild() must still drop one copy.
  Graph g;
  const Id a = g.input("a", {2, 2});
  const Id b = g.input("b", {2, 2});
  const Id fa = g.relu(a);
  const Id fb = g.relu(b);
  g.add_root(fa);
  g.add_root(fb);
  EGraph eg;
  auto mapping = eg.add_graph(g);
  eg.merge(mapping.at(fa), mapping.at(fb));
  eg.rebuild();
  ASSERT_EQ(eg.eclass(mapping.at(fa)).nodes.size(), 2u);
  eg.merge(mapping.at(a), mapping.at(b));
  eg.rebuild();
  EXPECT_EQ(eg.eclass(mapping.at(fa)).nodes.size(), 1u);
  size_t stored = 0;
  for (Id cls : eg.canonical_classes()) stored += eg.eclass(cls).nodes.size();
  EXPECT_EQ(stored, eg.num_enodes_total());
  EXPECT_EQ(eg.num_enodes(), eg.num_enodes_total());
}

TEST(EGraph, StaleKeysDoNotOvercount) {
  // ewadd(a, b) is re-interned twice, once per child merged away, in two
  // rebuilds. Each repair must drop the key the previous one wrote, so the
  // hash-cons holds one key per stored e-node.
  Graph g;
  const Id a = g.input("a", {2, 2});
  const Id b = g.input("b", {2, 2});
  const Id c = g.input("c", {2, 2});
  const Id d = g.input("d", {2, 2});
  const Id sum = g.ewadd(a, b);
  for (Id root : {sum, c, d}) g.add_root(root);
  EGraph eg;
  auto m = eg.add_graph(g);
  eg.merge(m.at(c), m.at(a));
  eg.rebuild();
  eg.merge(m.at(d), m.at(b));
  eg.rebuild();
  size_t stored = 0;
  for (Id cls : eg.canonical_classes()) stored += eg.eclass(cls).nodes.size();
  EXPECT_EQ(stored, 9u);  // 4 strs, 4 inputs, 1 ewadd
  EXPECT_EQ(eg.num_enodes_total(), 9u);
}

TEST(EGraph, NumClassesTracksMerges) {
  Graph g;
  const Id a = g.input("a", {2, 2});
  const Id r = g.relu(a);
  const Id t = g.tanh(a);
  g.add_root(r);
  g.add_root(t);
  EGraph eg;
  auto mapping = eg.add_graph(g);
  const size_t before = eg.num_classes();
  eg.merge(mapping.at(r), mapping.at(t));
  eg.rebuild();
  EXPECT_EQ(eg.num_classes(), before - 1);
}

}  // namespace
}  // namespace tensat
