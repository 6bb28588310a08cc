// Reproduces paper Table 3: TENSAT optimization-time breakdown into the
// exploration phase and the extraction phase, per benchmark model. Both
// columns are the times optimize() reports: run_exploration's
// ExploreStats::seconds and extract_certified's extract_seconds.
#include "bench/bench_common.h"

using namespace tensat;
using namespace tensat::bench;

int main() {
  print_header("Table 3 — TENSAT time breakdown", "Table 3");
  std::printf("%-14s %14s %14s %10s %10s\n", "model", "explore(s)", "extract(s)",
              "enodes", "eclasses");

  for (const ModelInfo& m : bench_models()) {
    const TensatOptions opt = tensat_options();
    EGraph eg = seed_egraph(m.graph);
    const ExploreStats explore = run_exploration(eg, default_rules(), opt);
    const TensatResult ext = extract_certified(eg, m.graph, cost_model(), opt);
    std::printf("%-14s %14.3f %14.3f %10zu %10zu%s\n", m.name.c_str(),
                explore.seconds, ext.extract_seconds, explore.enodes_total,
                explore.eclasses, ext.ilp.timed_out ? "  (ILP timeout)" : "");
    std::fflush(stdout);
  }
  std::printf("\nPaper shape to check: both phases stay in the same order of\n"
              "magnitude; neither dominates by orders of magnitude at k_multi=1.\n");
  return 0;
}
