// Quickstart: build a small tensor graph, optimize it with TENSAT, and
// inspect what changed.
//
//   $ ./build/examples/quickstart
//
// The graph is the paper's Figure 2 motif: two matmuls sharing an input.
// Equality saturation discovers the merged form (one matmul of concatenated
// weights, recovered with split) and ILP extraction selects it because the
// merged kernel is cheaper than two small ones.
#include <cstdio>

#include "cost/cost.h"
#include "lang/graph.h"
#include "optimizer/optimizer.h"
#include "rewrite/rules.h"
#include "trace/report.h"

int main() {
  using namespace tensat;

  // 1. Build the input graph: y1 = x * W1, y2 = x * W2.
  Graph g;
  const Id x = g.input("x", {64, 512});
  const Id w1 = g.weight("w1", {512, 512});
  const Id w2 = g.weight("w2", {512, 512});
  g.add_root(g.matmul(x, w1));
  g.add_root(g.matmul(x, w2));

  // 2. Configure and run the optimizer (defaults follow the paper §6.1).
  const T4CostModel model;
  TensatOptions options;
  options.k_max = 6;       // exploration iterations
  options.k_multi = 1;     // multi-pattern iterations
  options.node_limit = 2000;
  const TensatResult result = optimize(g, default_rules(), model, options);

  // 3. Report.
  std::printf("original cost : %8.2f us\n", result.original_cost);
  std::printf("optimized cost: %8.2f us  (%.1f%% speedup)\n", result.optimized_cost,
              100.0 * (result.original_cost - result.optimized_cost) /
                  result.optimized_cost);
  std::printf("exploration   : %d iterations, %zu e-nodes, %zu e-classes (%s)\n",
              result.explore.iterations, result.explore.enodes_total,
              result.explore.eclasses,
              result.explore.stop == StopReason::kSaturated ? "saturated" : "limit");
  trace::print_explore_phases(stdout, result.explore, "phase times   ");
  trace::print_extract_phases(stdout, result.ilp.stats, "extraction    ");
  std::printf("\noptimized graph (root expression):\n%s\n",
              result.optimized.to_sexpr(result.optimized.roots()[0]).c_str());
  return 0;
}
