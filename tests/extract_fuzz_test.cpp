// Seeded fuzz harness for the extraction engine: random small e-graphs
// (random DAGs of same-shape tensor ops, randomly merged same-analysis
// classes, randomly filtered e-nodes) extracted by both the decomposing
// engine and the monolithic ILP at zero MIP gap. The engine's contract is
// exact-cost parity on every instance both paths solve — the reductions,
// the SCC condensation, the tree-like DP collapse, and the per-core stitch
// must all be invisible in the objective.
//
// Two regimes, mirroring the paper's two ways of handling cycles:
//  * filtered/acyclic: cycles filtered out of the e-graph (the paper's main
//    mode), ILP without acyclicity constraints — every selection is a DAG,
//    so costs must match exactly.
//  * cyclic with constraints (4)-(5): no filtering; both paths must agree on
//    the optimal acyclic selection cost.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "cycles/cycles.h"
#include "extract/engine/engine.h"
#include "extract/extract.h"
#include "optimizer/optimizer.h"
#include "support/rng.h"

namespace tensat {
namespace {

const T4CostModel& model() {
  static const T4CostModel m;
  return m;
}

/// Random DAG over {8,8} tensors: a few input/weight leaves, then random
/// unary/binary ops over earlier nodes, with 1-3 random roots.
Graph random_graph(Rng& rng) {
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
void random_merges(EGraph& eg, Rng& rng, int merges) {
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
void random_filtering(EGraph& eg, Rng& rng, int attempts) {
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

void expect_parity(const EGraph& eg, bool cycle_constraints, uint64_t seed) {
  IlpExtractOptions base;
  base.cycle_constraints = cycle_constraints;
  base.rel_gap = 0.0;  // exact per-core optima, so costs must match exactly
  base.time_limit_s = 30.0;
  ExtractEngineOptions engine_opt;
  static_cast<IlpExtractOptions&>(engine_opt) = base;

  const EngineExtractionResult engine = extract_engine(eg, model(), engine_opt);
  const IlpExtractionResult mono = extract_ilp(eg, model(), base);
  ASSERT_FALSE(engine.timed_out) << "seed " << seed;
  ASSERT_FALSE(mono.timed_out) << "seed " << seed;
  EXPECT_EQ(engine.ok, mono.ok) << "seed " << seed;
  if (!engine.ok || !mono.ok) return;
  EXPECT_NEAR(engine.cost, mono.cost, 1e-6 + 1e-9 * std::abs(mono.cost))
      << "seed " << seed;
  // The engine must never lose to greedy either (it subsumes the warm start).
  const ExtractionResult greedy = extract_greedy(eg, model());
  if (greedy.ok) EXPECT_LE(engine.cost, greedy.cost + 1e-6) << "seed " << seed;
  // The extracted graph must realize the claimed cost.
  if (!engine.cyclic_selection)
    EXPECT_NEAR(graph_cost(engine.graph, model()), engine.cost, 1e-6)
        << "seed " << seed;
}

TEST(ExtractFuzz, FilteredAcyclicParity) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed * 0x9e3779b97f4a7c15ull);
    Graph g = random_graph(rng);
    EGraph eg = seed_egraph(g);
    random_merges(eg, rng, static_cast<int>(rng.range(0, 8)));
    random_filtering(eg, rng, static_cast<int>(rng.range(0, 4)));
    // The paper's main mode: cycles filtered during exploration, ILP without
    // acyclicity constraints.
    filter_cycles(eg);
    ASSERT_TRUE(is_acyclic(eg)) << "seed " << seed;
    expect_parity(eg, /*cycle_constraints=*/false, seed);
  }
}

TEST(ExtractFuzz, CyclicWithConstraintsParity) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed * 0xbf58476d1ce4e5b9ull);
    Graph g = random_graph(rng);
    EGraph eg = seed_egraph(g);
    random_merges(eg, rng, static_cast<int>(rng.range(1, 10)));
    expect_parity(eg, /*cycle_constraints=*/true, seed);
  }
}

TEST(ExtractFuzz, IntegerTopoVariantParity) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed * 0x94d049bb133111ebull);
    Graph g = random_graph(rng);
    EGraph eg = seed_egraph(g);
    random_merges(eg, rng, static_cast<int>(rng.range(1, 6)));
    IlpExtractOptions base;
    base.cycle_constraints = true;
    base.integer_topo_vars = true;
    base.rel_gap = 0.0;
    base.time_limit_s = 30.0;
    ExtractEngineOptions engine_opt;
    static_cast<IlpExtractOptions&>(engine_opt) = base;
    const EngineExtractionResult engine = extract_engine(eg, model(), engine_opt);
    const IlpExtractionResult mono = extract_ilp(eg, model(), base);
    ASSERT_FALSE(engine.timed_out) << "seed " << seed;
    ASSERT_FALSE(mono.timed_out) << "seed " << seed;
    EXPECT_EQ(engine.ok, mono.ok) << "seed " << seed;
    if (engine.ok && mono.ok)
      EXPECT_NEAR(engine.cost, mono.cost, 1e-6 + 1e-9 * std::abs(mono.cost))
          << "seed " << seed;
  }
}

}  // namespace
}  // namespace tensat
