#include "trace/report.h"

#include <algorithm>
#include <numeric>
#include <vector>

namespace tensat::trace {

void print_explore_phases(std::FILE* out, const ExploreStats& stats,
                          const char* label) {
  std::fprintf(out,
               "%s: search %.3fs, apply %.3fs, rebuild %.3fs, dmap %.3fs, "
               "cycle sweep %.3fs, other %.3fs (of %.3fs)\n",
               label, stats.search_seconds, stats.apply_seconds,
               stats.rebuild_seconds, stats.dmap_seconds,
               stats.cycle_sweep_seconds, stats.other_seconds(),
               stats.seconds);
}

void print_extract_phases(std::FILE* out, const ExtractStats& stats,
                          const char* label) {
  std::fprintf(out,
               "%s: reach %.3fs, reduce %.3fs, lp-build %.3fs, solve %.3fs, "
               "stitch %.3fs (%zu cores, largest %zu vars of %zu classes, "
               "gap %.2e, warm %d, refactor %d, fallback %zu)\n",
               label, stats.reach_seconds, stats.reduce_seconds,
               stats.lp_build_seconds, stats.solve_seconds,
               stats.stitch_seconds, stats.num_cores, stats.largest_core_vars,
               stats.classes_reachable, stats.gap, stats.warm_start_hits,
               stats.refactorizations, stats.fallback_cores);
}

void print_rule_profile(std::FILE* out, const ExploreStats& stats,
                        size_t top_n) {
  // Sort by attributed seconds, ties by name so the order is reproducible
  // even when every duration is zero (e.g. in the determinism tests).
  std::vector<size_t> order(stats.rules.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (stats.rules[a].seconds != stats.rules[b].seconds)
      return stats.rules[a].seconds > stats.rules[b].seconds;
    return stats.rules[a].name < stats.rules[b].name;
  });

  std::fprintf(out, "%-44s %9s %9s %9s %8s %5s %7s %9s\n", "rule", "matches",
               "planned", "committed", "nodes", "bans", "unbans", "seconds");
  size_t printed = 0;
  size_t elided = 0;
  for (size_t r : order) {
    const RuleTelemetry& rt = stats.rules[r];
    const bool silent = rt.matches == 0 && rt.bans == 0 && rt.seconds < 1e-4;
    if (silent || (top_n != 0 && printed >= top_n)) {
      ++elided;
      continue;
    }
    std::fprintf(out, "%-44s %9zu %9zu %9zu %8zu %5zu %7zu %9.3f\n",
                 rt.name.c_str(), rt.matches, rt.planned, rt.committed,
                 rt.nodes_added, rt.bans, rt.unbans, rt.seconds);
    ++printed;
  }
  if (elided > 0)
    std::fprintf(out, "(%zu rule%s with no activity%s not shown)\n", elided,
                 elided == 1 ? "" : "s", top_n != 0 ? " or below the cut" : "");
}

void print_growth_timeline(std::FILE* out, const ExploreStats& stats) {
  std::fprintf(out, "%4s %9s %9s %9s %9s %9s %9s %9s\n", "iter", "classes",
               "enodes", "hashcons", "filtered", "matches", "applied",
               "seconds");
  for (size_t i = 0; i < stats.growth.size(); ++i) {
    const IterationTelemetry& g = stats.growth[i];
    std::fprintf(out, "%4zu %9zu %9zu %9zu %9zu %9zu %9zu %9.3f\n", i,
                 g.eclasses, g.enodes, g.enodes_total, g.filtered, g.matches,
                 g.applications, g.seconds);
  }
}

}  // namespace tensat::trace
