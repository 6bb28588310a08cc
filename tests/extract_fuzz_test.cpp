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

#include "cycles/cycles.h"
#include "extract/engine/engine.h"
#include "extract/extract.h"
#include "optimizer/optimizer.h"
#include "support/rng.h"
#include "tests/random_egraph.h"

namespace tensat {
namespace {

const T4CostModel& model() {
  static const T4CostModel m;
  return m;
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
