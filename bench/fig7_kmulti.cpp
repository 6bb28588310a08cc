// Reproduces paper Figure 7: the effect of the number of multi-pattern
// iterations k_multi in {0,1,2,3} on (left) speedup, (middle) optimizer
// time, and (right) final e-graph size — including the double-exponential
// e-node growth and ILP timeouts at high k_multi.
//
// Also exercises the paper's §6.4 observation: under the "measured runtime"
// model (MeasuredRuntimeModel) a cost-model win can be a (small) runtime
// loss for data-movement-heavy graphs like SqueezeNet.
#include <memory>

#include "bench/bench_common.h"
#include "support/timer.h"

using namespace tensat;
using namespace tensat::bench;

int main() {
  print_header("Figure 7 — varying k_multi", "Figure 7");
  std::printf("%-14s %8s %10s %10s %10s %10s %12s\n", "model", "k_multi", "time(s)",
              "speedup%", "runtime%", "#enodes", "stop");

  auto base = std::make_shared<T4CostModel>();
  const MeasuredRuntimeModel runtime(base, /*movement_penalty=*/0.35,
                                     /*jitter=*/0.01, /*seed=*/7);

  const int max_k = quick_mode() ? 2 : 3;
  for (const ModelInfo& m : bench_models()) {
    for (int k_multi = 0; k_multi <= max_k; ++k_multi) {
      // The paper's two measurements at each k_multi:
      //  * e-graph growth — exploration alone with a high node ceiling (the
      //    double-exponential #enodes curve, Fig. 7 right);
      //  * speedup + optimizer time — the full pipeline at extraction scale
      //    (our MILP's ceiling stands in for the paper's ILP timeouts at
      //    high k_multi).
      TensatOptions grow = tensat_options(k_multi);
      grow.node_limit = quick_mode() ? 8000 : 30000;
      grow.explore_time_limit_s = quick_mode() ? 5.0 : 15.0;
      EGraph eg = seed_egraph(m.graph);
      const ExploreStats growth = run_exploration(eg, default_rules(), grow);

      TensatOptions opt = tensat_options(k_multi);
      Timer t;
      const TensatResult r = optimize(m.graph, default_rules(), cost_model(), opt);
      const double seconds = t.seconds();
      const double pct = speedup_percent(r.original_cost, r.optimized_cost);
      // "True runtime" speedup under the discrepancy model.
      Graph original = m.graph;
      original.single_root();
      const double runtime_pct = speedup_percent(graph_cost(original, runtime),
                                                 graph_cost(r.optimized, runtime));
      const char* stop = r.ilp.timed_out ? "ilp-timeout"
                         : r.explore.stop == StopReason::kSaturated ? "saturated"
                         : r.explore.stop == StopReason::kNodeLimit ? "node-limit"
                                                                    : "iter-limit";
      std::printf("%-14s %8d %10.2f %10.2f %10.2f %10zu %12s\n", m.name.c_str(),
                  k_multi, seconds, pct, runtime_pct, growth.enodes_total, stop);
      std::fflush(stdout);
    }
  }
  std::printf("\nPaper shapes to check: #enodes explodes with k_multi (log scale in\n"
              "the paper); speedup is non-decreasing in k_multi under the cost\n"
              "model; optimizer time grows with k_multi; the measured-runtime\n"
              "column can dip below the cost-model column on concat-heavy models\n"
              "(the paper's SqueezeNet anomaly).\n");
  return 0;
}
