// Optimizing a NasRNN cell — the paper's best case (68.9% speedup in Table
// 1, Fig. 11 pattern): each cell computes eight gates, each gate a pair of
// matmuls against the step input x_t and the hidden state h. Sixteen small
// matmuls collapse into a few large ones via the multi-pattern rules.
//
// This example also compares against the TASO-style backtracking baseline on
// the same graph, cost model, and rule set — the paper's Table 1 row.
#include <cstdio>

#include "models/models.h"
#include "optimizer/optimizer.h"
#include "rewrite/rules.h"
#include "support/timer.h"
#include "taso/search.h"
#include "trace/report.h"

int main() {
  using namespace tensat;

  const Graph cell = make_nasrnn(/*steps=*/2, /*batch=*/16, /*hidden=*/512);
  const T4CostModel model;
  std::printf("NasRNN (2 steps, hidden 512): %zu operators, cost %.1f us\n",
              cell.reachable_size(), graph_cost(cell, model));

  // TASO-style sequential backtracking search.
  TasoOptions taso_options;
  taso_options.iterations = 30;
  taso_options.time_limit_s = 60.0;
  Timer taso_timer;
  const TasoResult taso = taso_search(cell, default_rules(), model, taso_options);
  std::printf("TASO  : %.1f us after %.2fs (best found at %.2fs)\n", taso.best_cost,
              taso.stats.total_seconds, taso.stats.best_seconds);

  // TENSAT.
  TensatOptions options;
  options.k_max = 6;
  options.k_multi = 2;  // two rounds merge gate pairs, then pairs of pairs
  options.node_limit = 1500;
  Timer tensat_timer;
  const TensatResult tensat = optimize(cell, default_rules(), model, options);
  std::printf("TENSAT: %.1f us after %.2fs (explore %.2fs + extract %.2fs)\n",
              tensat.optimized_cost, tensat_timer.seconds(),
              tensat.explore.seconds, tensat.extract_seconds);
  trace::print_explore_phases(stdout, tensat.explore, "        explore phases");
  trace::print_extract_phases(stdout, tensat.ilp.stats,
                              "        extract phases");

  std::printf("\nspeedup over original: TASO %.1f%%, TENSAT %.1f%%\n",
              100.0 * (taso.original_cost - taso.best_cost) / taso.best_cost,
              100.0 * (tensat.original_cost - tensat.optimized_cost) /
                  tensat.optimized_cost);
  return 0;
}
