// Optimization-as-a-service: a long-lived front end over the TENSAT
// pipeline that amortizes work across requests instead of starting cold
// every time. Three reuse layers, each independently switchable:
//
//   1. Result cache (service/cache.h): requests are canonicalized
//      (service/fingerprint.h) and looked up in a bounded LRU keyed by the
//      full canonical form. A hit returns the stored optimized graph bytes
//      and stats without touching the pool — bit-identical to the run that
//      populated the entry. Only sessionless (cold-path) results populate
//      the cache, so a hit always reproduces what a fresh submission of
//      that graph would have been handed.
//
//   2. Persistent sessions: a client that iterates on one model (perturbed
//      resubmissions) names a session; the service keeps that session's
//      explored e-graph alive together with its ExplorationSession state
//      (backoff scheduler on the global iteration clock). A resubmission
//      is added into the existing e-graph and exploration RESUMES —
//      rewrites discovered for the previous variant are already in the
//      e-graph, so saturation converges in fewer iterations. Session
//      results are cost-certified (never worse than the request's input,
//      same guarantee as optimize()) but not byte-stable across service
//      restarts: they depend on what the session explored before, which is
//      the point. A session whose e-graph outgrows session_node_cap is
//      retired and restarted fresh on the next request.
//
//   3. Cross-request MILP warm starts: the extraction engine's per-core
//      solves publish their root LP basis and pseudocost history into a
//      shared MilpWarmCache (extract/engine/engine.h) keyed by core
//      formulation fingerprint. Requests — sessionless or not — that
//      produce a previously-seen core seed its solve. Advisory only: seeds
//      steer simplex/B&B search order, never the certified objective.
//
// Concurrency: submit() is safe from any number of threads. The result
// cache and warm cache have internal locks; the session table has a service
// lock for lookup/creation and a per-session lock held for the duration of
// a session run (two requests naming the same session serialize; distinct
// sessions run concurrently on the shared pool).
//
// Metrics (src/metrics/, always on): the registry is the one place a
// service event is counted. Its tensat_service_*_total counters (requests,
// errors, cache hits and misses, sessions created, reused and retired) are
// what stats() returns; next to them sit per-outcome submit latency
// histograms, hit-ratio / session / pool gauges, MILP gap and fallback
// counters, and a flight recorder of per-request records with slow-request
// Chrome-trace capture. Scrape with metrics()->expose_prometheus() /
// expose_json(); see docs/OBSERVABILITY.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cost/cost.h"
#include "extract/engine/engine.h"
#include "metrics/flight.h"
#include "metrics/metrics.h"
#include "optimizer/optimizer.h"
#include "rewrite/rules.h"
#include "service/cache.h"

namespace tensat {
namespace service {

struct ServiceOptions {
  /// Pipeline knobs for every request the service runs itself (cache hits
  /// bypass them entirely). node_limit is interpreted per run: a resumed
  /// session gets node_limit fresh headroom on top of its existing e-graph.
  TensatOptions tensat;
  bool enable_cache = true;
  bool enable_sessions = true;
  bool enable_warm_starts = true;
  size_t cache_capacity = 256;       // result-cache entries
  size_t warm_capacity = 512;        // MILP warm-start entries
  /// Retire a session whose e-graph (hash-cons total) exceeds this many
  /// e-nodes; 0 = 10x tensat.node_limit. Retirement drops the explored
  /// state — the next request on the key starts a fresh session.
  size_t session_node_cap = 0;
  /// Flight-recorder knobs (metrics::FlightRecorder::Options). A request
  /// slower than slow_threshold_s dumps a Chrome trace of its phase
  /// breakdown into slow_dump_dir; <= 0 disables capture (ring still on).
  size_t flight_capacity = 256;
  double slow_threshold_s = 0.0;
  std::string slow_dump_dir = ".";
  size_t max_slow_dumps = 16;
};

/// Everything submit() reports about one request.
struct ServiceResponse {
  bool ok{false};
  std::string error;           // set when !ok (parse/validation failure)
  bool cache_hit{false};
  bool session_reused{false};  // resumed an existing session's e-graph
  uint64_t fingerprint{0};     // canonical-form fingerprint of the input
  std::string optimized_text;  // optimized graph, serialized (empty if !ok)
  double original_cost{0.0};
  double optimized_cost{0.0};
  int iterations{0};           // exploration iterations this request ran (0 on hit)
  double seconds{0.0};         // submit() wall time, including hits
  /// Process-unique id assigned at submission (1-based, monotone). Keys the
  /// flight-recorder record and any slow-request trace dump for this
  /// request, so a client report ("request 1234 was slow") is joinable
  /// against the service's own telemetry.
  uint64_t request_id{0};
};

/// Service-lifetime counters (monotone), read from the metrics registry's
/// tensat_service_*_total counters of the same names.
struct ServiceStats {
  size_t requests{0};
  size_t errors{0};            // rejected (malformed) submissions
  size_t cache_hits{0};
  size_t cache_misses{0};      // misses among cache-eligible requests
  size_t sessions_created{0};
  size_t sessions_reused{0};
  size_t sessions_retired{0};  // e-graph outgrew session_node_cap
};

class OptimizationService {
 public:
  /// `rules` and `model` must outlive the service.
  OptimizationService(const std::vector<Rewrite>& rules, const CostModel& model,
                      ServiceOptions options = {});
  ~OptimizationService();
  OptimizationService(const OptimizationService&) = delete;
  OptimizationService& operator=(const OptimizationService&) = delete;

  /// Optimizes one graph given in the tensat-graph v1 text format.
  /// `session_key` empty = sessionless (cache + warm starts only); non-empty
  /// names the persistent session to resume or create. Malformed input
  /// yields ok=false with the parse error in `error` — submit() never
  /// throws for bad request bytes.
  ServiceResponse submit(const std::string& graph_text,
                         const std::string& session_key = "");

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] size_t cache_size() const { return cache_.size(); }
  [[nodiscard]] size_t warm_entries() const { return warm_.size(); }
  [[nodiscard]] size_t live_sessions() const;

  /// The metrics registry / flight recorder; never null. Scraping is
  /// thread-safe and may run concurrently with submissions.
  [[nodiscard]] metrics::MetricsRegistry* metrics() const;
  [[nodiscard]] metrics::FlightRecorder* flight_recorder() const;

 private:
  struct Session;
  struct Instruments;

  TensatResult run_sessionless(const Graph& input);
  TensatResult run_in_session(const Graph& input, const std::string& key,
                              bool* reused);
  void finish(ServiceResponse& resp, metrics::RequestRecord::Outcome outcome,
              const TensatResult* run);

  const std::vector<Rewrite>& rules_;
  const CostModel& model_;
  const ServiceOptions options_;
  const size_t session_cap_;  // resolved session_node_cap

  ResultCache cache_;
  MilpWarmCache warm_;

  mutable std::mutex mutex_;  // guards sessions_
  std::unordered_map<std::string, std::shared_ptr<Session>> sessions_;

  std::atomic<uint64_t> next_request_id_{0};
  const std::unique_ptr<Instruments> instruments_;  // never null
};

}  // namespace service
}  // namespace tensat
