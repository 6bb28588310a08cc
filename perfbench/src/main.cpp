// perfbench — the repository's end-to-end benchmark program. run.py builds
// it and runs it; see README.md for the workloads and metrics.
//
// Usage: perfbench --workload NAME --seed N --seconds S [--trace 0|1]
//                  [--tiny]
//
// Prints per-graph or per-request detail, then as its last line one JSON
// object with the operation counts and both metric sets (end_to_end and,
// in a traced run, per_layer), each metric as {"value", "unit"}.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "harness.h"

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload table1-ilp|saturate-greedy|service-mix "
               "--seed N --seconds S [--trace 0|1] [--tiny]\n");
  return 2;
}

void print_metrics(const char* key, const std::vector<Metric>& metrics) {
  std::printf(", \"%s\": {", key);
  for (size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  std::printf("}");
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  RunConfig config;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const bool has_value = i + 1 < argc;
    if (std::strcmp(argv[i], "--workload") == 0 && has_value) {
      workload = argv[++i];
    } else if (std::strcmp(argv[i], "--seed") == 0 && has_value) {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (std::strcmp(argv[i], "--seconds") == 0 && has_value) {
      config.seconds = std::atof(argv[++i]);
      have_seconds = true;
    } else if (std::strcmp(argv[i], "--trace") == 0 && has_value) {
      config.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (std::strcmp(argv[i], "--tiny") == 0) {
      config.tiny = true;
    } else {
      return usage();
    }
  }
  if (workload.empty() || !have_seed || !have_seconds || !(config.seconds > 0.0))
    return usage();

  Report report;
  try {
    if (workload == "service-mix")
      report = run_service_mix(config);
    else if (workload == "table1-ilp" || workload == "saturate-greedy")
      report = run_batch(workload, config);
    else
      return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (report.attempted < 1) {
    std::fprintf(stderr, "perfbench: no operation completed\n");
    return 1;
  }
  // The share of operations whose outputs passed every check.
  report.e2e("ok_ratio",
             1.0 - static_cast<double>(report.failed) / static_cast<double>(report.attempted),
             "ratio");

  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld",
              report.failed == 0 ? "true" : "false", report.attempted, report.failed);
  print_metrics("end_to_end", report.end_to_end);
  print_metrics("per_layer", report.per_layer);
  std::printf("}\n");
  return 0;
}
