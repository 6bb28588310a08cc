// Randomized e-graph invariants, checked against a brute-force congruence
// oracle: after arbitrary merge/rebuild interleavings,
//   * find() respects every asserted equality,
//   * congruence closure is complete (same op + equivalent children =>
//     same class) and sound w.r.t. the oracle's closure,
//   * hash-consing is canonical (re-adding any canonicalized node returns
//     its own class) and no e-node is stored twice (tests/egraph_invariants.h),
//   * node counts never grow from rebuild (dedup only shrinks).
#include <gtest/gtest.h>

#include <map>

#include "egraph/egraph.h"
#include "support/rng.h"
#include "tests/egraph_invariants.h"

namespace tensat {
namespace {

/// Brute-force congruence closure over a fixed term universe.
struct Oracle {
  // Terms: leaf i in [0, kLeaves) or (op, child term) unary applications.
  // Represented as ids into `terms`.
  struct Term {
    int op;  // -1 = leaf, else unary op index
    int child;
  };
  std::vector<Term> terms;
  std::vector<int> cls;  // term -> class label

  int find(int t) const { return cls[t]; }

  void merge(int a, int b) {
    const int la = cls[a], lb = cls[b];
    if (la == lb) return;
    for (int& c : cls)
      if (c == lb) c = la;
    close();
  }

  void close() {
    bool changed = true;
    while (changed) {
      changed = false;
      for (size_t i = 0; i < terms.size(); ++i) {
        for (size_t j = i + 1; j < terms.size(); ++j) {
          if (cls[i] == cls[j]) continue;
          if (terms[i].op < 0 || terms[j].op < 0) continue;
          if (terms[i].op == terms[j].op && cls[terms[i].child] == cls[terms[j].child]) {
            const int lb = cls[j], la = cls[i];
            for (int& c : cls)
              if (c == lb) c = la;
            changed = true;
          }
        }
      }
    }
  }
};

constexpr int kLeaves = 4;
constexpr int kOps = 3;  // relu, tanh, sigmoid (all shape-preserving, T -> T)

Op unary_op(int i) {
  static constexpr Op kUnary[] = {Op::kRelu, Op::kTanh, Op::kSigmoid};
  return kUnary[i];
}

class EGraphVsOracle : public ::testing::TestWithParam<int> {};

TEST_P(EGraphVsOracle, CongruenceClosureMatches) {
  Rng rng(777 + GetParam());

  EGraph eg;
  Oracle oracle;
  std::vector<Id> eg_ids;  // term -> e-class id (as returned at add time)

  // Leaves.
  Graph g;
  std::vector<Id> leaf_graph_ids;
  for (int i = 0; i < kLeaves; ++i) {
    const Id gid = g.input("leaf" + std::to_string(i), {2, 2});
    g.add_root(gid);
    leaf_graph_ids.push_back(gid);
  }
  auto mapping = eg.add_graph(g);
  for (int i = 0; i < kLeaves; ++i) {
    oracle.terms.push_back({-1, -1});
    oracle.cls.push_back(i);
    eg_ids.push_back(mapping.at(leaf_graph_ids[i]));
  }

  // Random term additions and merges, interleaved with rebuilds.
  for (int step = 0; step < 60; ++step) {
    const int action = static_cast<int>(rng.below(3));
    if (action == 0) {
      // Add op(t) for random existing term t.
      const int t = static_cast<int>(rng.below(oracle.terms.size()));
      const int op = static_cast<int>(rng.below(kOps));
      TNode node{unary_op(op), 0, {}, {eg.find(eg_ids[t])}};
      eg_ids.push_back(eg.add(std::move(node)));
      oracle.terms.push_back({op, t});
      // Class label: congruent existing term's label or fresh.
      int label = static_cast<int>(oracle.cls.size()) + 1000;
      for (size_t j = 0; j + 1 < oracle.terms.size(); ++j) {
        if (oracle.terms[j].op == op && oracle.cls[oracle.terms[j].child] == oracle.cls[t])
          label = oracle.cls[j];
      }
      oracle.cls.push_back(label);
      oracle.close();
    } else if (action == 1 && oracle.terms.size() >= 2) {
      const int a = static_cast<int>(rng.below(oracle.terms.size()));
      const int b = static_cast<int>(rng.below(oracle.terms.size()));
      eg.merge(eg_ids[a], eg_ids[b]);
      oracle.merge(a, b);
    } else {
      eg.rebuild();
      // No e-node is stored twice, in one class or two, and the hash-cons
      // agrees with the stored nodes. (Random merges close cycles, which
      // only the exploration's sweep would filter.)
      ASSERT_EQ(egraph_invariant_violations(eg, /*acyclic=*/false), "")
          << "seed " << GetParam() << " step " << step;
    }
  }
  eg.rebuild();

  // Equivalence must agree exactly for every term pair.
  for (size_t i = 0; i < oracle.terms.size(); ++i) {
    for (size_t j = i + 1; j < oracle.terms.size(); ++j) {
      EXPECT_EQ(eg.find(eg_ids[i]) == eg.find(eg_ids[j]),
                oracle.find(static_cast<int>(i)) == oracle.find(static_cast<int>(j)))
          << "terms " << i << ", " << j << " (seed " << GetParam() << ")";
    }
  }

  EXPECT_EQ(egraph_invariant_violations(eg, /*acyclic=*/false), "")
      << "seed " << GetParam();

  // Hash-cons canonicality: re-adding every canonical node hits its class.
  for (Id cls : eg.canonical_classes()) {
    for (const EClassNode& e : eg.eclass(cls).nodes) {
      TNode copy = e.node;
      EXPECT_EQ(eg.find(eg.add(std::move(copy))), eg.find(cls));
    }
  }

  // Rebuild is idempotent.
  const uint64_t v = eg.version();
  eg.rebuild();
  EXPECT_EQ(eg.version(), v);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EGraphVsOracle, ::testing::Range(0, 30));

TEST(EGraphProperty, RebuildNeverGrowsNodeCount) {
  Rng rng(31);
  EGraph eg;
  Graph g;
  const Id a = g.input("a", {2, 2});
  const Id b = g.input("b", {2, 2});
  std::vector<Id> chain_a{a}, chain_b{b};
  for (int i = 0; i < 20; ++i) {
    chain_a.push_back(g.relu(chain_a.back()));
    chain_b.push_back(g.relu(chain_b.back()));
  }
  g.add_root(chain_a.back());
  g.add_root(chain_b.back());
  auto mapping = eg.add_graph(g);
  const size_t before = eg.num_enodes_total();
  eg.merge(mapping.at(a), mapping.at(b));
  eg.rebuild();
  EXPECT_LT(eg.num_enodes_total(), before);  // the chains collapse pairwise
  EXPECT_EQ(eg.num_classes(), 20u + 1u + 2u);  // one chain + leaf class + strs
}

}  // namespace
}  // namespace tensat
