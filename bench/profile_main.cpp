// tensat_profile — the profiling CLI for the tracing/telemetry layer
// (src/trace, docs/OBSERVABILITY.md).
//
// Runs the full TENSAT pipeline (explore + ILP extract) on one model with a
// trace::Tracer installed, then emits:
//   * trace.json — Chrome trace-event JSON; load it in chrome://tracing or
//     https://ui.perfetto.dev to see per-thread spans for search / plan /
//     commit / rebuild / dmap / sweep and the per-core extraction solves,
//     plus the e-graph growth counters.
//   * a per-rule profile table (matches / planned / committed / nodes added /
//     bans / unbans / attributed seconds per rule) and the per-iteration
//     e-graph growth timeline, on stdout.
//
// Usage: tensat_profile <model> [options]
//   <model>: bert | nasrnn | inception | sharedmm | tiny-bert
//   -o FILE        trace output path (default trace.json)
//   --k-max N      exploration iterations (default 6)
//   --k-multi N    multi-pattern iterations (default 1)
//   --node-limit N e-graph size cap (default 5000)
//   --threads N    search/apply worker threads (default 0 = hardware)
//   --top N        rule-profile rows to print (default 25, 0 = all)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "bench_common.h"
#include "models/models.h"
#include "optimizer/optimizer.h"
#include "rewrite/rules.h"
#include "support/buildinfo.h"
#include "trace/report.h"
#include "trace/trace.h"

using namespace tensat;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <bert|nasrnn|inception|sharedmm|tiny-bert> "
               "[-o trace.json] [--k-max N] [--k-multi N] [--node-limit N] "
               "[--threads N] [--top N]\n",
               argv0);
  return 2;
}

/// The multi-pattern blow-up shape: 8 inputs, each feeding 12 matmuls, so
/// every same-input pair matches the shared-operand rules. Apply-heavy,
/// good for watching the plan/commit pipeline saturate.
Graph make_sharedmm() {
  Graph g;
  for (int grp = 0; grp < 8; ++grp) {
    const Id x = g.input("x" + std::to_string(grp), {64, 64});
    for (int i = 0; i < 12; ++i) {
      const Id w =
          g.weight("w" + std::to_string(grp) + "_" + std::to_string(i), {64, 64});
      g.add_root(g.matmul(x, w));
    }
  }
  return g;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);

  std::string out_path = "trace.json";
  TensatOptions options;
  options.k_max = 6;
  options.k_multi = 1;
  options.node_limit = 5000;
  options.search_threads = 0;
  options.apply_threads = 0;
  options.ilp.time_limit_s = 30.0;
  size_t top_n = 25;

  const std::string model = argv[1];
  for (int i = 2; i < argc; ++i) {
    const auto need_value = [&](const char* flag) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        std::exit(usage(argv[0]));
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "-o") == 0)
      out_path = need_value("-o");
    else if (std::strcmp(argv[i], "--k-max") == 0)
      options.k_max = std::atoi(need_value("--k-max"));
    else if (std::strcmp(argv[i], "--k-multi") == 0)
      options.k_multi = std::atoi(need_value("--k-multi"));
    else if (std::strcmp(argv[i], "--node-limit") == 0)
      options.node_limit = static_cast<size_t>(std::atol(need_value("--node-limit")));
    else if (std::strcmp(argv[i], "--threads") == 0) {
      const size_t n = static_cast<size_t>(std::atol(need_value("--threads")));
      options.search_threads = n;
      options.apply_threads = n;
    } else if (std::strcmp(argv[i], "--top") == 0)
      top_n = static_cast<size_t>(std::atol(need_value("--top")));
    else
      return usage(argv[0]);
  }

  Graph g;
  if (model == "bert")
    g = make_bert(2, 32, 128);
  else if (model == "nasrnn")
    g = make_nasrnn(2, 16, 512);
  else if (model == "inception")
    g = make_inception_v3(2, 32, 16);
  else if (model == "sharedmm")
    g = make_sharedmm();
  else if (model == "tiny-bert")  // CI smoke scale
    g = make_bert(1, 4, 8);
  else
    return usage(argv[0]);

  const T4CostModel& cost = bench::cost_model();
  std::printf("tensat_profile: %s (%zu operators), build %s/%s\n", model.c_str(),
              g.reachable_size(), build_git_sha(), build_type());

  trace::Tracer tracer;
  tracer.install();
  const TensatResult result = optimize(g, default_rules(), cost, options);
  tracer.uninstall();

  std::ofstream out(out_path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  tracer.write_chrome_trace(out);
  out.close();

  const trace::Summary summary = tracer.summary();
  std::printf("cost: %.1f -> %.1f us (%+.1f%%); explore %.2fs (%d iterations, "
              "stop=%s), extract %.2fs; %zu trace events -> %s\n",
              result.original_cost, result.optimized_cost,
              bench::speedup_percent(result.original_cost, result.optimized_cost),
              result.explore.seconds, result.explore.iterations,
              result.explore.stop == StopReason::kSaturated    ? "saturated"
              : result.explore.stop == StopReason::kNodeLimit  ? "node-limit"
              : result.explore.stop == StopReason::kTimeLimit  ? "time-limit"
                                                               : "iter-limit",
              result.extract_seconds, summary.events, out_path.c_str());
  trace::print_explore_phases(stdout, result.explore, "explore phases");
  trace::print_extract_phases(stdout, result.extract_stats, "extract phases");

  std::printf("\nper-iteration e-graph growth:\n");
  trace::print_growth_timeline(stdout, result.explore);

  std::printf("\nper-rule profile (by attributed seconds):\n");
  trace::print_rule_profile(stdout, result.explore, top_n);

  std::printf("\naggregate span times (all lanes):\n");
  for (const auto& sp : summary.spans)
    std::printf("  %-28s x%-6zu %10.3f ms\n", sp.name.c_str(), sp.count,
                sp.total_us / 1e3);
  if (!summary.totals.empty()) {
    std::printf("aggregate counters:\n");
    for (const auto& t : summary.totals)
      std::printf("  %-28s %12lld\n", t.name.c_str(),
                  static_cast<long long>(t.value));
  }
  return 0;
}
