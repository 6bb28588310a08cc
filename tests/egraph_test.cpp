#include <gtest/gtest.h>

#include "egraph/egraph.h"
#include "egraph/union_find.h"
#include "lang/parse.h"
#include "support/check.h"
#include "support/rng.h"
#include "tests/egraph_invariants.h"

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

TEST(EGraph, HashconsExactThroughGrowthAndRepairs) {
  // Seeded churn: thousands of adds grow the hash-cons table from its
  // smallest size through many doublings, and hundreds of merges make each
  // rebuild() erase stale keys, many from inside probe runs, and re-intern
  // them. After every rebuild the table must hold exactly one key per
  // stored e-node, each found by lookup(), and the size counters must
  // match the walks they replace.
  Rng rng(2027);
  Graph g;
  for (int i = 0; i < 6; ++i) g.add_root(g.input("x" + std::to_string(i), {4, 4}));
  EGraph eg;
  eg.add_graph(g);
  std::vector<Id> tensors;  // every {4,4} tensor class made, possibly stale
  for (Id cls : eg.canonical_classes())
    if (eg.data(cls).kind == VKind::kTensor) tensors.push_back(cls);
  const Op unary[] = {Op::kRelu, Op::kTanh, Op::kSigmoid};
  const Op binary[] = {Op::kEwadd, Op::kEwmul};
  size_t added = 0;
  size_t merges = 0;
  for (int round = 0; round < 60; ++round) {
    for (int i = 0; i < 100; ++i) {
      const Id a = tensors[rng.below(tensors.size())];
      const Id b = tensors[rng.below(tensors.size())];
      const TNode node = rng.below(2) == 0 ? TNode{unary[rng.below(3)], 0, {}, {a}}
                                           : TNode{binary[rng.below(2)], 0, {}, {a, b}};
      const size_t keys = eg.num_enodes_total();
      const Id cls = eg.add(node);
      if (eg.num_enodes_total() > keys) {
        ++added;
        tensors.push_back(cls);
      }
      ASSERT_EQ(eg.lookup(node), std::optional<Id>(eg.find(cls)));
    }
    for (int m = 0; m < 8; ++m) {
      if (eg.merge(tensors[rng.below(tensors.size())],
                   tensors[rng.below(tensors.size())]))
        ++merges;
    }
    const Id victim = eg.find(tensors[rng.below(tensors.size())]);
    eg.set_filtered(victim, rng.below(eg.eclass(victim).nodes.size()));
    eg.rebuild();
    ASSERT_EQ(egraph_invariant_violations(eg, /*acyclic=*/false), "")
        << "after round " << round;
  }
  EXPECT_GE(added, 5000u);
  EXPECT_GE(merges, 300u);
}

TEST(EGraph, ParentListedTwiceIsRekeyedAcrossAMerge) {
  // cat = concat3(1, a, b, ra) sits twice in the parent list of a's and
  // b's merged class. Between its two visits in one repair, relu(b) turns
  // out congruent to relu(a), and that merge takes ra's class into the
  // larger class of relu(b), so the second visit re-keys cat under a newer
  // form. The repaired list keeps one parent per form, and the rebuilt
  // e-graph keeps every invariant.
  Graph g;
  const Id a = g.input("a", {2, 2});
  const Id b = g.input("b", {2, 2});
  const Id ra = g.relu(a);
  const Id rb = g.relu(b);
  const Id tb = g.tanh(b);
  const Id cat = g.concat(1, {a, b, ra});
  for (Id root : {rb, tb, cat}) g.add_root(root);
  EGraph eg;
  const auto m = eg.add_graph(g);
  const auto enode_id = [&](Id gid) { return eg.eclass(m.at(gid)).nodes.at(0).stamp; };
  const uint32_t ra_id = enode_id(ra);
  const uint32_t tb_id = enode_id(tb);
  const uint32_t cat_id = enode_id(cat);
  eg.merge(m.at(rb), m.at(tb));  // relu(b)'s class outgrows relu(a)'s
  eg.rebuild();
  eg.merge(m.at(a), m.at(b));
  eg.rebuild();
  ASSERT_EQ(eg.find(m.at(ra)), eg.find(m.at(rb)));
  EXPECT_EQ(egraph_invariant_violations(eg), "");
  // relu(b) repeats relu(a)'s form and is dropped; cat's two entries were
  // re-interned under two forms, so both stay.
  EXPECT_EQ(eg.eclass(m.at(a)).parents,
            (std::vector<uint32_t>{ra_id, cat_id, tb_id, cat_id}));
  EXPECT_EQ(eg.lookup(TNode{Op::kConcat3, 0, {}, {m.at(g.num(1)), m.at(a), m.at(a), m.at(rb)}}),
            std::optional<Id>(eg.find(m.at(cat))));
}

}  // namespace
}  // namespace tensat
