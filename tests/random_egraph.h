// Shared test helper: seeded random extraction instances. A random DAG of
// same-shape tensor ops is seeded into an e-graph, then random merges of
// same-analysis classes create extraction choices (and possibly cycles) and
// random filtering removes e-nodes. Used by the extraction fuzz harness
// (extract_fuzz_test) and the greedy oracle suite (extract_test).
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "egraph/egraph.h"
#include "lang/graph.h"
#include "support/rng.h"

namespace tensat {

/// Random DAG over {8,8} tensors: a few input/weight leaves, then random
/// unary/binary ops over earlier nodes, with 1-3 random roots.
inline Graph random_graph(Rng& rng) {
  Graph g;
  std::vector<Id> pool;
  const int inputs = static_cast<int>(rng.range(1, 3));
  const int weights = static_cast<int>(rng.range(1, 3));
  for (int i = 0; i < inputs; ++i)
    pool.push_back(g.input("x" + std::to_string(i), {8, 8}));
  for (int i = 0; i < weights; ++i)
    pool.push_back(g.weight("w" + std::to_string(i), {8, 8}));
  const int ops = static_cast<int>(rng.range(6, 22));
  for (int i = 0; i < ops; ++i) {
    const Id a = pool[rng.below(pool.size())];
    const Id b = pool[rng.below(pool.size())];
    Id made;
    switch (rng.below(6)) {
      case 0: made = g.matmul(a, b); break;
      case 1: made = g.ewadd(a, b); break;
      case 2: made = g.ewmul(a, b); break;
      case 3: made = g.relu(a); break;
      case 4: made = g.tanh(a); break;
      default: made = g.sigmoid(a); break;
    }
    pool.push_back(made);
  }
  const int roots = static_cast<int>(rng.range(1, 3));
  for (int i = 0; i < roots; ++i)
    g.add_root(pool[pool.size() - 1 - rng.below(std::min<size_t>(pool.size(), 5))]);
  return g;
}

/// Randomly merges same-analysis tensor classes (creating real extraction
/// choices, possibly cycles) and rebuilds.
inline void random_merges(EGraph& eg, Rng& rng, int merges) {
  for (int i = 0; i < merges; ++i) {
    const std::vector<Id> classes = eg.canonical_classes();
    const Id a = classes[rng.below(classes.size())];
    const Id b = classes[rng.below(classes.size())];
    if (eg.find(a) == eg.find(b)) continue;
    const ValueInfo& da = eg.data(a);
    const ValueInfo& db = eg.data(b);
    if (da.kind != VKind::kTensor || db.kind != VKind::kTensor) continue;
    if (da.shape != db.shape || da.shape2 != db.shape2) continue;
    if (da.num != db.num || da.str != db.str) continue;
    // Merging a weight-only class into a non-weight-only one is possible in
    // the e-graph but never semantic (real rewrites preserve the value, and
    // weight-only-ness is a property of the value): it makes the class-level
    // cost diverge from the re-inferred cost of an extracted member, so tied
    // optima would realize different graph costs and parity would be
    // unfalsifiable. Keep the fuzz instances semantically coherent instead.
    if (da.weight_only != db.weight_only) continue;
    eg.merge(a, b);
    eg.rebuild();
  }
}

/// Randomly filters a few e-nodes (never the last live node of the root).
inline void random_filtering(EGraph& eg, Rng& rng, int attempts) {
  for (int i = 0; i < attempts; ++i) {
    const std::vector<Id> classes = eg.canonical_classes();
    const Id cls = classes[rng.below(classes.size())];
    const auto& nodes = eg.eclass(cls).nodes;
    const size_t k = rng.below(nodes.size());
    if (nodes[k].filtered) continue;
    if (eg.find(cls) == eg.root()) continue;
    eg.set_filtered(cls, k);
  }
}

}  // namespace tensat
