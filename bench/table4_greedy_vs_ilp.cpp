// Reproduces paper Table 4: greedy vs ILP extraction. Greedy extraction
// ignores subgraph sharing, so on models whose best rewrites rely on shared
// merged operators (BERT, NasNet-A) it fails to improve the graph — or even
// regresses — while ILP extraction finds the optimum.
//
// Rows: runtime cost (simulated microseconds) of the original graph and of
// the graphs produced by greedy and by ILP extraction (extract_engine, the
// extractor optimize() runs), k_multi = 1.
#include "bench/bench_common.h"

using namespace tensat;
using namespace tensat::bench;

int main() {
  print_header("Table 4 — Greedy vs ILP extraction", "Table 4");
  std::printf("%-14s %14s %14s %14s\n", "model", "original", "greedy", "ilp");

  for (const ModelInfo& m : bench_models()) {
    const std::string& name = m.name;
    // The paper reports BERT, NasRNN, NasNet-A; we run all models and mark
    // the paper's three.
    const TensatOptions opt = tensat_options();
    EGraph eg = seed_egraph(m.graph);
    run_exploration(eg, default_rules(), opt);

    const double original = graph_cost(m.graph, cost_model());
    const ExtractionResult greedy = extract_greedy(eg, cost_model());
    const EngineExtractionResult ilp = extract_engine(eg, cost_model(), opt.ilp);

    std::printf("%-14s %14.2f %14.2f %14.2f%s\n", name.c_str(), original,
                greedy.ok ? greedy.cost : -1.0, ilp.ok ? ilp.cost : -1.0,
                ilp.timed_out ? "  (ILP timeout)" : "");
    std::fflush(stdout);
  }
  std::printf("\nPaper shape to check: ILP <= greedy everywhere; on models whose\n"
              "wins come from shared merged operators, greedy stays at (or above)\n"
              "the original cost while ILP improves it.\n");
  return 0;
}
