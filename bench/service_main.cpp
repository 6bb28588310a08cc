// tensat_service — a small CLI front end for the optimization service
// (src/service/): parses graphs from the tensat-graph v1 text format,
// drives OptimizationService through a repeated request mix, and prints the
// per-request outcomes plus the service counters
// (service/{hits,misses,sessions_reused}, read from stats(), which reads
// the metrics registry) for the CI smoke grep.
//
// Usage: tensat_service [options]
//   --rounds N       repeat the request mix N times (default 3)
//   --session KEY    also resubmit a perturbed variant per round under KEY
//                    (default "iter"; empty string disables the session leg)
//   --node-limit N   e-graph size cap per run (default 500)
//   --k-max N        exploration iterations (default 4)
//   --no-cache / --no-sessions / --no-warm   disable one reuse layer
//   --metrics FILE   write Prometheus text exposition to FILE at exit, plus
//                    FILE.round<N> after each round (for monotonicity checks)
//   --metrics-json FILE   write the JSON exposition to FILE at exit
//   --slow-threshold S    flight-recorder slow-request capture threshold in
//                         seconds (default 0 = capture off)
//   --slow-dump-dir DIR   where slow-request Chrome traces land (default ".")
//
// The mix per round is tiny-BERT, tiny-NasRNN, and SharedMM — the same
// shapes bench_ematch_report's service section measures at larger scale.
// Round 1 is all cold; later rounds hit the result cache, and the session
// leg resumes its e-graph, so a healthy run ends with hits > 0 and
// sessions_reused > 0. Each round also prints a one-line stderr report
// (p50/p99 latency, hit ratio, pool depth) — the periodic operator view a
// long-lived deployment would log.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "metrics/flight.h"
#include "metrics/metrics.h"
#include "models/models.h"
#include "rewrite/rules.h"
#include "serialize/serialize.h"
#include "service/service.h"
#include "support/buildinfo.h"

using namespace tensat;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--rounds N] [--session KEY] [--node-limit N] "
               "[--k-max N] [--no-cache] [--no-sessions] [--no-warm]\n"
               "          [--metrics FILE] [--metrics-json FILE] "
               "[--slow-threshold S] [--slow-dump-dir DIR]\n",
               argv0);
  return 2;
}

/// SharedMM at smoke scale: the multi-pattern shape from bench_ematch_report.
Graph make_sharedmm_small() {
  Graph g;
  for (int grp = 0; grp < 2; ++grp) {
    const Id x = g.input("x" + std::to_string(grp), {32, 32});
    for (int i = 0; i < 4; ++i) {
      const Id w =
          g.weight("w" + std::to_string(grp) + "_" + std::to_string(i), {32, 32});
      g.add_root(g.matmul(x, w));
    }
  }
  return g;
}

/// A perturbed variant for the session leg: the base model plus one extra
/// disjoint root, distinct per round, so every resubmission is a cache miss
/// that still shares almost all structure with the session's e-graph.
Graph perturb(Graph g, int round) {
  const Id x = g.input("perturb" + std::to_string(round), {16, 16});
  g.add_root(g.relu(x));
  return g;
}

bool write_exposition(const std::string& path, const std::string& body) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << body;
  return static_cast<bool>(out);
}

/// One operator line per round: merged (all-outcome) latency quantiles, hit
/// ratio, and pool backlog — scraped from the same registry Prometheus sees.
void report_round(const service::OptimizationService& svc, int round) {
  metrics::MetricsRegistry* reg = svc.metrics();
  std::vector<metrics::HistogramSnapshot> parts;
  for (const char* outcome : {"hit", "cold", "session", "error"})
    parts.push_back(reg->histogram("tensat_service_submit_seconds",
                                   {{"outcome", outcome}})
                        .snapshot());
  const metrics::HistogramSnapshot all = metrics::merge_snapshots(parts);
  std::fprintf(stderr,
               "metrics round %d: requests %llu  p50 %.4fs  p99 %.4fs  "
               "hit_ratio %.2f  queue_depth %.0f  flight %llu\n",
               round + 1, static_cast<unsigned long long>(all.count),
               all.quantile(0.5), all.quantile(0.99),
               reg->gauge("tensat_service_cache_hit_ratio").value(),
               reg->gauge("tensat_service_pool_queue_depth").value(),
               static_cast<unsigned long long>(
                   svc.flight_recorder()->total_recorded()));
}

}  // namespace

int main(int argc, char** argv) {
  int rounds = 3;
  std::string session_key = "iter";
  std::string metrics_path;
  std::string metrics_json_path;
  service::ServiceOptions options;
  options.tensat = bench::tensat_options();
  options.tensat.k_max = 4;
  options.tensat.node_limit = 500;

  for (int i = 1; i < argc; ++i) {
    const auto need_value = [&](const char* flag) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        std::exit(usage(argv[0]));
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--rounds") == 0)
      rounds = std::atoi(need_value("--rounds"));
    else if (std::strcmp(argv[i], "--session") == 0)
      session_key = need_value("--session");
    else if (std::strcmp(argv[i], "--node-limit") == 0)
      options.tensat.node_limit =
          static_cast<size_t>(std::atol(need_value("--node-limit")));
    else if (std::strcmp(argv[i], "--k-max") == 0)
      options.tensat.k_max = std::atoi(need_value("--k-max"));
    else if (std::strcmp(argv[i], "--no-cache") == 0)
      options.enable_cache = false;
    else if (std::strcmp(argv[i], "--no-sessions") == 0)
      options.enable_sessions = false;
    else if (std::strcmp(argv[i], "--no-warm") == 0)
      options.enable_warm_starts = false;
    else if (std::strcmp(argv[i], "--metrics") == 0)
      metrics_path = need_value("--metrics");
    else if (std::strcmp(argv[i], "--metrics-json") == 0)
      metrics_json_path = need_value("--metrics-json");
    else if (std::strcmp(argv[i], "--slow-threshold") == 0)
      options.slow_threshold_s = std::atof(need_value("--slow-threshold"));
    else if (std::strcmp(argv[i], "--slow-dump-dir") == 0)
      options.slow_dump_dir = need_value("--slow-dump-dir");
    else
      return usage(argv[0]);
  }

  struct Request {
    const char* name;
    std::string text;
  };
  std::vector<Request> mix;
  mix.push_back({"tiny-bert", save_graph_to_string(make_bert(1, 4, 8))});
  mix.push_back({"tiny-nasrnn", save_graph_to_string(make_nasrnn(1, 4, 32))});
  mix.push_back({"sharedmm", save_graph_to_string(make_sharedmm_small())});
  const Graph session_base = make_bert(1, 4, 8);

  std::printf("tensat_service: %d round(s) x %zu request(s)%s, build %s/%s\n",
              rounds, mix.size(),
              session_key.empty() ? "" : " + 1 session request", build_git_sha(),
              build_type());

  const std::vector<Rewrite>& rules = default_rules();
  const T4CostModel& model = bench::cost_model();
  service::OptimizationService svc(rules, model, options);

  int failures = 0;
  for (int round = 0; round < rounds; ++round) {
    for (const Request& req : mix) {
      const service::ServiceResponse r = svc.submit(req.text);
      if (!r.ok) {
        std::fprintf(stderr, "FAIL %s: %s\n", req.name, r.error.c_str());
        ++failures;
        continue;
      }
      std::printf("round %d %-12s %s  cost %.1f -> %.1f us  %.3fs\n", round + 1,
                  req.name, r.cache_hit ? "hit " : "cold", r.original_cost,
                  r.optimized_cost, r.seconds);
    }
    if (!session_key.empty()) {
      const std::string text = save_graph_to_string(perturb(session_base, round));
      const service::ServiceResponse r = svc.submit(text, session_key);
      if (!r.ok) {
        std::fprintf(stderr, "FAIL session: %s\n", r.error.c_str());
        ++failures;
      } else {
        std::printf("round %d %-12s %s  cost %.1f -> %.1f us  %.3fs\n", round + 1,
                    "session", r.session_reused ? "resume" : "fresh ",
                    r.original_cost, r.optimized_cost, r.seconds);
      }
    }
    report_round(svc, round);
    if (!metrics_path.empty()) {
      // Per-round snapshots: tools/check_prometheus.py diffs consecutive
      // files to verify counters never decrease across scrapes.
      std::ostringstream body;
      svc.metrics()->expose_prometheus(body);
      write_exposition(metrics_path + ".round" + std::to_string(round + 1),
                       body.str());
    }
  }
  const service::ServiceStats stats = svc.stats();
  std::printf("\nrequests %zu  errors %zu  cache %zu/%zu entries  sessions %zu live\n",
              stats.requests, stats.errors, svc.cache_size(),
              options.cache_capacity, svc.live_sessions());
  // One line per service counter, exactly as CI greps them.
  std::printf("service/hits %zu\n", stats.cache_hits);
  std::printf("service/misses %zu\n", stats.cache_misses);
  std::printf("service/sessions_reused %zu\n", stats.sessions_reused);

  if (!metrics_path.empty()) {
    std::ostringstream body;
    svc.metrics()->expose_prometheus(body);
    if (!write_exposition(metrics_path, body.str())) ++failures;
    std::printf("metrics/prometheus %s\n", metrics_path.c_str());
  }
  if (!metrics_json_path.empty()) {
    std::ostringstream body;
    svc.metrics()->expose_json(body);
    if (!write_exposition(metrics_json_path, body.str())) ++failures;
    std::printf("metrics/json %s\n", metrics_json_path.c_str());
  }
  const metrics::FlightRecorder& flight = *svc.flight_recorder();
  std::printf("flight/recorded %llu\n",
              static_cast<unsigned long long>(flight.total_recorded()));
  std::printf("flight/dumps %llu\n",
              static_cast<unsigned long long>(flight.dumps_written()));
  for (const std::string& path : flight.dump_paths())
    std::printf("flight/dump %s\n", path.c_str());
  return failures == 0 ? 0 : 1;
}
