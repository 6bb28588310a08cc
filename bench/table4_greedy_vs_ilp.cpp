// Reproduces paper Table 4: greedy vs ILP extraction. Greedy extraction
// ignores subgraph sharing, so on models whose best rewrites rely on shared
// merged operators (BERT, NasNet-A) it fails to improve the graph — or even
// regresses — while ILP extraction finds the optimum.
//
// Rows: runtime cost (simulated microseconds) of the original graph and of
// the graphs produced by greedy and by ILP extraction (extract_engine, the
// extractor optimize() runs), k_multi = 1.
//
// Gate: exits 1 when a row whose ILP did not time out has an ILP cost above
// greedy's by more than the MIP gap the solver may stop at
// (ilp.cost > greedy.cost * (1 + rel_gap) + 1e-9) — the paper's
// "ILP <= greedy everywhere" shape.
#include "bench/bench_common.h"

using namespace tensat;
using namespace tensat::bench;

int main() {
  print_header("Table 4 — Greedy vs ILP extraction", "Table 4");
  std::printf("%-14s %14s %14s %14s\n", "model", "original", "greedy", "ilp");

  int worse_rows = 0;
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

    const bool worse = greedy.ok && ilp.ok && !ilp.timed_out &&
                       ilp.cost > greedy.cost * (1.0 + opt.ilp.rel_gap) + 1e-9;
    worse_rows += worse ? 1 : 0;
    std::printf("%-14s %14.2f %14.2f %14.2f%s%s\n", name.c_str(), original,
                greedy.ok ? greedy.cost : -1.0, ilp.ok ? ilp.cost : -1.0,
                ilp.timed_out ? "  (ILP timeout)" : "",
                worse ? "  (ILP WORSE THAN GREEDY)" : "");
    std::fflush(stdout);
  }
  std::printf("\nPaper shape: ILP <= greedy everywhere (gated on every row whose\n"
              "ILP finished); on models whose wins come from shared merged\n"
              "operators, greedy stays at (or above) the original cost while ILP\n"
              "improves it.\n");
  if (worse_rows > 0) {
    std::printf("FAIL: ILP worse than greedy on %d model(s)\n", worse_rows);
    return 1;
  }
  return 0;
}
