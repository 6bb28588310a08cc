#include <gtest/gtest.h>

#include "cycles/cycles.h"
#include "lang/parse.h"
#include "rewrite/matcher.h"
#include "rewrite/rules.h"

namespace tensat {
namespace {

/// Brute-force reachability over the class graph (unfiltered e-nodes): a
/// path of at least one edge from `from` to `to`.
bool dfs_reaches(const EGraph& eg, Id from, Id to) {
  std::vector<Id> stack{eg.find(from)};
  std::vector<bool> seen(eg.num_ids(), false);
  while (!stack.empty()) {
    const Id cur = stack.back();
    stack.pop_back();
    for (const EClassNode& e : eg.eclass(cur).nodes) {
      if (e.filtered) continue;
      for (Id c : e.node.children) {
        const Id child = eg.find(c);
        if (child == eg.find(to)) return true;
        if (!seen[child]) {
          seen[child] = true;
          stack.push_back(child);
        }
      }
    }
  }
  return false;
}

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

TEST(Descendants, RankRefutesAndSearchDecides) {
  // A diamond under two independent branches, beside an unrelated chain.
  // Rows are ranked in DFS post-order, so of two classes neither of which
  // reaches the other, one direction is refuted by the ranks alone and the
  // other needs the pruned search to say no; every true pair needs the
  // search to say yes. Each pair is checked both ways against brute force.
  Graph g;
  const Id a = g.input("a", {2, 2});
  const Id b = g.relu(a);
  const Id c = g.tanh(a);
  const Id d = g.ewadd(b, c);  // diamond a -> {b, c} -> d
  const Id e = g.sigmoid(d);
  const Id f = g.relu(e);  // branch 1
  const Id h = g.tanh(d);
  const Id k = g.sigmoid(h);  // branch 2
  const Id x = g.input("x", {2, 2});
  const Id y = g.tanh(g.relu(x));  // unrelated chain
  for (Id root : {f, k, y}) g.add_root(root);
  EGraph eg;
  const auto m = eg.add_graph(g);
  const DescendantsMap dmap(eg);
  const auto cls = [&](Id gid) { return eg.find(m.at(gid)); };

  EXPECT_TRUE(dmap.reaches(cls(d), cls(a)));  // both sides of the diamond
  EXPECT_TRUE(dmap.reaches(cls(f), cls(a)));
  EXPECT_TRUE(dmap.reaches(cls(k), cls(b)));
  EXPECT_FALSE(dmap.reaches(cls(a), cls(d)));  // upward
  EXPECT_FALSE(dmap.reaches(cls(b), cls(c)));  // diamond siblings
  EXPECT_FALSE(dmap.reaches(cls(c), cls(b)));
  EXPECT_FALSE(dmap.reaches(cls(f), cls(k)));  // independent branches
  EXPECT_FALSE(dmap.reaches(cls(k), cls(f)));
  EXPECT_FALSE(dmap.reaches(cls(f), cls(h)));
  EXPECT_FALSE(dmap.reaches(cls(h), cls(e)));
  EXPECT_FALSE(dmap.reaches(cls(y), cls(a)));  // unrelated components
  EXPECT_FALSE(dmap.reaches(cls(f), cls(x)));

  size_t reachable = 0;
  const std::vector<Id> classes = eg.canonical_classes();
  for (Id from : classes) {
    for (Id to : classes) {
      const bool expected = from != to && dfs_reaches(eg, from, to);
      EXPECT_EQ(dmap.reaches(from, to), expected) << from << " -> " << to;
      reachable += expected;
    }
  }
  EXPECT_GT(reachable, 0u);
}

TEST(Descendants, CyclicSnapshotNeverOverclaims) {
  // Merging a descendant into its ancestor and rebuilding without the sweep
  // leaves a cyclic snapshot, outside the map's precondition. It may then
  // miss pairs, but every pair it reports must be reachable.
  Graph g;
  const Id a = g.input("a", {2, 2});
  const Id b = g.relu(a);
  const Id c = g.tanh(b);
  const Id d = g.ewadd(c, b);
  const Id e = g.sigmoid(d);
  const Id f = g.ewmul(e, a);
  g.add_root(f);
  g.add_root(g.relu(g.input("z", {2, 2})));
  EGraph eg;
  const auto m = eg.add_graph(g);
  eg.merge(m.at(e), m.at(b));  // b is a descendant of e
  eg.merge(m.at(c), m.at(a));  // and a of c
  eg.rebuild();
  ASSERT_FALSE(is_acyclic(eg));

  const DescendantsMap dmap(eg);
  size_t claimed = 0;
  const std::vector<Id> classes = eg.canonical_classes();
  for (Id from : classes) {
    for (Id to : classes) {
      if (!dmap.reaches(from, to)) continue;
      ++claimed;
      EXPECT_TRUE(dfs_reaches(eg, from, to)) << from << " -> " << to;
    }
  }
  EXPECT_GT(claimed, 0u);
}

}  // namespace
}  // namespace tensat
