// optimize()'s flow, replicated call by call so that each layer's public
// function can be timed from the benchmark, and the per-layer totals read
// from what those calls return.
#pragma once

#include <map>
#include <string>

#include "harness.h"
#include "optimizer/optimizer.h"

namespace perfbench {

/// One graph optimized once: the end-to-end numbers and what each layer's
/// call returned.
struct GraphRun {
  double optimize_s{0.0};
  double explore_s{0.0};
  double extract_s{0.0};
  double original_cost{0.0};
  double optimized_cost{0.0};
  bool fell_back{false};
  tensat::ExploreStats explore;
  tensat::ExtractStats extract;
  double solve_s{0.0};
  int bb_nodes{0};
  int lp_iterations{0};
  bool ilp_timed_out{false};
  tensat::Graph optimized;
};

/// optimize(input, default_rules(), cost_model(), opt), including its
/// never-worse fallback, with a span around every call into a layer.
GraphRun optimize_traced(const tensat::Graph& input, const tensat::TensatOptions& opt,
                         SpanLog& spans);

/// Wall time of run_exploration on a fresh e-graph of `input` with one
/// search and one apply thread: the serial side of the pool's payoff.
double explore_threads1_seconds(const tensat::Graph& input, const tensat::TensatOptions& opt);

const char* stop_name(tensat::StopReason s);

/// Per-layer totals summed over GraphRuns.
class LayerTotals {
 public:
  void add(const GraphRun& r);
  /// Emits every total divided by `runs_per_value` (e.g. the passes), plus
  /// the maxima and the commit ratio.
  void report(Report& out, double runs_per_value) const;

 private:
  std::map<std::string, double> sum_;
  double gap_max_{0.0};
  double largest_core_{0.0};
  double planned_{0.0};
  double committed_{0.0};
};

}  // namespace perfbench
