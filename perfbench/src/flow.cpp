#include "flow.h"

#include <algorithm>
#include <cmath>

#include "cost/cost.h"
#include "rewrite/rules.h"

namespace perfbench {

using namespace tensat;

GraphRun optimize_traced(const Graph& input, const TensatOptions& opt, SpanLog& spans) {
  const std::vector<Rewrite>& rules = default_rules();
  GraphRun r;
  const Clock::time_point t0 = Clock::now();
  r.original_cost = traced(spans, "cost.graph_cost",
                           [&] { return graph_cost(input, cost_model()); });
  EGraph eg = traced(spans, "egraph.seed", [&] { return seed_egraph(input); });
  const Clock::time_point t_explore = Clock::now();
  r.explore = traced(spans, "optimizer.explore",
                     [&] { return run_exploration(eg, rules, opt); });
  const Clock::time_point t_extract = Clock::now();
  bool ok = false;
  if (opt.extractor == ExtractorKind::kGreedy) {
    ExtractionResult ext = traced(spans, "extract.greedy",
                                  [&] { return extract_greedy(eg, cost_model()); });
    ok = ext.ok;
    r.optimized = std::move(ext.graph);
    r.optimized_cost = ext.cost;
  } else {
    EngineExtractionResult ilp = traced(
        spans, "extract.engine", [&] { return extract_engine(eg, cost_model(), opt.ilp); });
    ok = ilp.ok;
    r.optimized = std::move(ilp.graph);
    r.optimized_cost = ilp.cost;
    r.extract = ilp.stats;
    r.solve_s = ilp.solve_seconds;
    r.bb_nodes = ilp.bb_nodes;
    r.lp_iterations = ilp.lp_iterations;
    r.ilp_timed_out = ilp.timed_out;
  }
  const Clock::time_point t_done = Clock::now();
  // optimize()'s certificate: never worse than the input.
  if (!ok || r.optimized_cost > r.original_cost) {
    Graph g = input;
    g.single_root();
    r.optimized = std::move(g);
    r.optimized_cost = r.original_cost;
    r.fell_back = true;
  }
  const Clock::time_point t_end = Clock::now();
  r.optimize_s = seconds_between(t0, t_end);
  r.explore_s = seconds_between(t_explore, t_extract);
  r.extract_s = seconds_between(t_extract, t_done);
  return r;
}

double explore_threads1_seconds(const Graph& input, const TensatOptions& opt) {
  TensatOptions serial = opt;
  serial.search_threads = 1;
  serial.apply_threads = 1;
  EGraph eg = seed_egraph(input);
  const Clock::time_point t0 = Clock::now();
  (void)run_exploration(eg, default_rules(), serial);
  return seconds_between(t0, Clock::now());
}

const char* stop_name(StopReason s) {
  switch (s) {
    case StopReason::kSaturated: return "saturated";
    case StopReason::kIterLimit: return "iter-limit";
    case StopReason::kNodeLimit: return "node-limit";
    case StopReason::kTimeLimit: return "time-limit";
  }
  return "?";
}

void LayerTotals::add(const GraphRun& r) {
  const ExploreStats& e = r.explore;
  const ExtractStats& x = r.extract;
  sum_["ilp.solve_s"] += r.solve_s;
  sum_["ilp.bb_nodes"] += r.bb_nodes;
  sum_["ilp.lp_iterations"] += r.lp_iterations;
  sum_["ilp.warm_start_hits"] += x.warm_start_hits;
  sum_["ilp.refactorizations"] += x.refactorizations;
  sum_["ilp.fallback_cores"] += static_cast<double>(x.fallback_cores);
  sum_["ilp.timeouts"] += r.ilp_timed_out ? 1 : 0;
  if (std::isfinite(x.gap)) gap_max_ = std::max(gap_max_, x.gap);
  sum_["extract.reach_s"] += x.reach_seconds;
  sum_["extract.reduce_s"] += x.reduce_seconds;
  sum_["extract.lp_build_s"] += x.lp_build_seconds;
  sum_["extract.stitch_s"] += x.stitch_seconds;
  sum_["extract.cores"] += static_cast<double>(x.num_cores);
  largest_core_ = std::max(largest_core_, static_cast<double>(x.largest_core_vars));
  sum_["rewrite.apply_s"] += e.apply_seconds;
  sum_["rewrite.applications"] += static_cast<double>(e.applications);
  for (const RuleTelemetry& rule : e.rules) {
    planned_ += static_cast<double>(rule.planned);
    committed_ += static_cast<double>(rule.committed);
  }
  sum_["ematch.search_s"] += e.search_seconds;
  sum_["ematch.matches"] += static_cast<double>(e.matches_found + e.multi_matches_found);
  sum_["ematch.searches_skipped"] += static_cast<double>(e.searches_skipped);
  sum_["ematch.bans"] += static_cast<double>(e.bans);
  sum_["egraph.rebuild_s"] += e.rebuild_seconds;
  sum_["egraph.enodes"] += static_cast<double>(e.enodes_total);
  sum_["egraph.eclasses"] += static_cast<double>(e.eclasses);
  sum_["cycles.dmap_s"] += e.dmap_seconds;
  sum_["cycles.sweep_s"] += e.cycle_sweep_seconds;
  sum_["cycles.filtered"] += static_cast<double>(e.filtered);
  sum_["optimizer.iterations"] += e.iterations;
  sum_["optimizer.node_limit_stops"] += e.stop == StopReason::kNodeLimit ? 1 : 0;
}

void LayerTotals::report(Report& out, double runs_per_value) const {
  for (const auto& [name, value] : sum_) {
    const bool seconds = name.size() > 2 && name.compare(name.size() - 2, 2, "_s") == 0;
    out.layer(name, value / runs_per_value, seconds ? "s" : "count");
  }
  out.layer("ilp.gap_max", gap_max_, "ratio");
  out.layer("extract.largest_core_vars", largest_core_, "count");
  out.layer("rewrite.commit_ratio", planned_ > 0 ? committed_ / planned_ : 0.0, "ratio");
}

}  // namespace perfbench
