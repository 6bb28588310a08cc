#include "service/service.h"

#include <utility>

#include "cycles/incremental.h"
#include "egraph/egraph.h"
#include "serialize/serialize.h"
#include "service/fingerprint.h"
#include "support/pool.h"
#include "support/timer.h"

namespace tensat {
namespace service {

/// One persistent session. Member order matters: `exp` (whose cycle
/// analysis holds a journal pointer into *eg) must be declared after `eg`
/// so it is destroyed first, detaching the journal while the e-graph is
/// still alive. Retirement resets in the same order.
struct OptimizationService::Session {
  std::mutex mutex;            // serializes runs on this session
  std::unique_ptr<EGraph> eg;  // heap-owned: must not move while journaled
  ExplorationSession exp;
  /// E-node total last added to the service-wide session_enodes gauge (so
  /// retirement/regrowth adjust it by exact differences).
  size_t recorded_enodes{0};
};

/// All metric handles, resolved once at construction so the request path
/// never re-looks-up a family (registry references are stable).
struct OptimizationService::Instruments {
  metrics::MetricsRegistry registry;
  metrics::FlightRecorder flight;

  metrics::Counter& requests;
  metrics::Counter& errors;
  metrics::Counter& cache_hits;
  metrics::Counter& cache_misses;
  metrics::Counter& sessions_created;
  metrics::Counter& sessions_reused;
  metrics::Counter& sessions_retired;
  metrics::Counter& fallback_cores;
  metrics::Counter& warm_start_hits;
  metrics::Counter& refactorizations;
  metrics::Counter& pool_steals;

  metrics::Gauge& hit_ratio;
  metrics::Gauge& cache_entries;
  metrics::Gauge& warm_entries;
  metrics::Gauge& sessions_live;
  metrics::Gauge& session_enodes;
  metrics::Gauge& pool_queue_depth;
  metrics::Gauge& pool_workers;

  // Per-outcome submit latency, one histogram instance per outcome label.
  metrics::Histogram& latency_hit;
  metrics::Histogram& latency_cold;
  metrics::Histogram& latency_session;
  metrics::Histogram& latency_error;
  metrics::Histogram& milp_gap;

  std::atomic<uint64_t> last_pool_steals{0};

  explicit Instruments(metrics::FlightRecorder::Options flight_opts)
      : flight(std::move(flight_opts)),
        requests(registry.counter("tensat_service_requests_total", {},
                                  "Requests submitted")),
        errors(registry.counter("tensat_service_errors_total", {},
                                "Rejected (malformed) submissions")),
        cache_hits(registry.counter("tensat_service_cache_hits_total", {},
                                    "Result-cache hits")),
        cache_misses(registry.counter("tensat_service_cache_misses_total", {},
                                      "Result-cache misses")),
        sessions_created(registry.counter("tensat_service_sessions_created_total",
                                          {}, "Persistent sessions created")),
        sessions_reused(registry.counter("tensat_service_sessions_reused_total",
                                         {},
                                         "Requests resuming an existing session")),
        sessions_retired(registry.counter(
            "tensat_service_sessions_retired_total", {},
            "Sessions retired (e-graph outgrew session_node_cap)")),
        fallback_cores(registry.counter(
            "tensat_service_fallback_cores_total", {},
            "MILP cores solved by the LP-relaxation fallback")),
        warm_start_hits(registry.counter(
            "tensat_service_warm_start_hits_total", {},
            "MILP node LPs restored from a warm-start basis")),
        refactorizations(registry.counter(
            "tensat_service_refactorizations_total", {},
            "Sparse-basis refactorizations across MILP node LPs")),
        pool_steals(registry.counter("tensat_service_pool_steals_total", {},
                                     "Work-stealing pool deque steals")),
        hit_ratio(registry.gauge("tensat_service_cache_hit_ratio", {},
                                 "Lifetime result-cache hit ratio")),
        cache_entries(registry.gauge("tensat_service_cache_entries", {},
                                     "Result-cache resident entries")),
        warm_entries(registry.gauge("tensat_service_warm_entries", {},
                                    "MILP warm-start cache entries")),
        sessions_live(registry.gauge("tensat_service_sessions_live", {},
                                     "Persistent sessions resident")),
        session_enodes(registry.gauge(
            "tensat_service_session_enodes", {},
            "E-nodes held across all live session e-graphs")),
        pool_queue_depth(registry.gauge(
            "tensat_service_pool_queue_depth", {},
            "Pending invitations across all pool lanes")),
        pool_workers(registry.gauge("tensat_service_pool_workers", {},
                                    "Work-stealing pool worker threads")),
        latency_hit(submit_histogram("hit")),
        latency_cold(submit_histogram("cold")),
        latency_session(submit_histogram("session")),
        latency_error(submit_histogram("error")),
        milp_gap(registry.histogram(
            "tensat_service_milp_gap", {},
            "Certified relative MILP optimality gap per request", 1e-9)) {}

  metrics::Histogram& submit_histogram(const char* outcome) {
    return registry.histogram("tensat_service_submit_seconds",
                              {{"outcome", outcome}},
                              "submit() wall time by request outcome");
  }

  metrics::Histogram& latency(metrics::RequestRecord::Outcome o) {
    switch (o) {
      case metrics::RequestRecord::Outcome::kHit:
        return latency_hit;
      case metrics::RequestRecord::Outcome::kCold:
        return latency_cold;
      case metrics::RequestRecord::Outcome::kSession:
        return latency_session;
      case metrics::RequestRecord::Outcome::kError:
        return latency_error;
    }
    return latency_cold;
  }
};

OptimizationService::OptimizationService(const std::vector<Rewrite>& rules,
                                         const CostModel& model,
                                         ServiceOptions options)
    : rules_(rules),
      model_(model),
      options_(std::move(options)),
      session_cap_(options_.session_node_cap != 0
                       ? options_.session_node_cap
                       : 10 * options_.tensat.node_limit),
      cache_(options_.cache_capacity),
      warm_(options_.warm_capacity),
      instruments_(std::make_unique<Instruments>([&] {
        metrics::FlightRecorder::Options f;
        f.capacity = options_.flight_capacity;
        f.slow_threshold_s = options_.slow_threshold_s;
        f.dump_dir = options_.slow_dump_dir;
        f.max_dumps = options_.max_slow_dumps;
        return f;
      }())) {}

OptimizationService::~OptimizationService() = default;

metrics::MetricsRegistry* OptimizationService::metrics() const {
  return &instruments_->registry;
}

metrics::FlightRecorder* OptimizationService::flight_recorder() const {
  return &instruments_->flight;
}

/// The single exit point for submit(): observes the latency histogram for
/// `outcome`, refreshes the per-request gauges (hit ratio, pool), folds the
/// run's extraction counters in, and appends the flight-recorder record
/// (which may dump a slow-request trace). `run` is null for hits and
/// errors. Greedy runs carry zeroed extraction stats with an infinite gap,
/// so their extraction counters add nothing. The size gauges (cache and
/// warm entries, live sessions, session e-nodes) are set where their values
/// change, so a cache hit takes no lock here beyond the flight recorder's.
void OptimizationService::finish(ServiceResponse& resp,
                                 metrics::RequestRecord::Outcome outcome,
                                 const TensatResult* run) {
  Instruments& m = *instruments_;
  m.latency(outcome).observe(resp.seconds);

  const bool has_gap = run != nullptr && run->extract_stats.gap >= 0.0 &&
                       run->extract_stats.gap < kInf;
  if (run != nullptr) {
    const ExtractStats& x = run->extract_stats;
    m.fallback_cores.add(x.fallback_cores);
    if (x.warm_start_hits > 0)
      m.warm_start_hits.add(static_cast<uint64_t>(x.warm_start_hits));
    if (x.refactorizations > 0)
      m.refactorizations.add(static_cast<uint64_t>(x.refactorizations));
    if (has_gap) m.milp_gap.observe(x.gap);
  }

  // Reading the service's own counters via the registry keeps Prometheus
  // self-consistent (ratio derived from the same totals the scrape exposes).
  const uint64_t hits = m.cache_hits.value();
  const uint64_t misses = m.cache_misses.value();
  if (hits + misses > 0)
    m.hit_ratio.set(static_cast<double>(hits) /
                    static_cast<double>(hits + misses));

  WorkStealingPool& pool = WorkStealingPool::global();
  m.pool_queue_depth.set(static_cast<double>(pool.queue_depth()));
  m.pool_workers.set(static_cast<double>(pool.worker_count()));
  // Concurrent requests can read the pool's steal total in one order and
  // publish it in the other, so `last_pool_steals` only ever moves forward:
  // each steal is added exactly once, by whichever request first saw it.
  const uint64_t steals = pool.stats().steals;
  uint64_t prev = m.last_pool_steals.load(std::memory_order_relaxed);
  while (steals > prev && !m.last_pool_steals.compare_exchange_weak(
                              prev, steals, std::memory_order_relaxed)) {
  }
  if (steals > prev) m.pool_steals.add(steals - prev);

  metrics::RequestRecord rec;
  rec.request_id = resp.request_id;
  rec.fingerprint = resp.fingerprint;
  rec.outcome = outcome;
  rec.seconds = resp.seconds;
  rec.iterations = resp.iterations;
  if (run != nullptr) {
    const ExploreStats& e = run->explore;
    rec.stop_reason = static_cast<int>(e.stop);
    rec.search_seconds = e.search_seconds;
    rec.apply_seconds = e.apply_seconds;
    rec.rebuild_seconds = e.rebuild_seconds;
    rec.dmap_seconds = e.dmap_seconds;
    rec.cycle_sweep_seconds = e.cycle_sweep_seconds;
    const ExtractStats& x = run->extract_stats;
    rec.reach_seconds = x.reach_seconds;
    rec.reduce_seconds = x.reduce_seconds;
    rec.lp_build_seconds = x.lp_build_seconds;
    rec.solve_seconds = x.solve_seconds;
    rec.stitch_seconds = x.stitch_seconds;
    if (has_gap) rec.milp_gap = x.gap;
    rec.fallback_cores = x.fallback_cores;
    rec.enodes_total = e.enodes_total;
  }
  m.flight.record(rec);
}

ServiceResponse OptimizationService::submit(const std::string& graph_text,
                                            const std::string& session_key) {
  Timer timer;
  ServiceResponse resp;
  resp.request_id =
      next_request_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  Instruments& m = *instruments_;
  m.requests.inc();

  Graph input;
  std::string canonical;
  try {
    input = load_graph_from_string(graph_text);
    canonical = canonical_form(input);
  } catch (const std::exception& e) {
    // Malformed request bytes are a client error, never a service crash.
    resp.error = e.what();
    resp.seconds = timer.seconds();
    m.errors.inc();
    finish(resp, metrics::RequestRecord::Outcome::kError, nullptr);
    return resp;
  }
  resp.fingerprint = fingerprint(canonical);

  // Layer 1: result cache. Checked before the session path too — a graph
  // the service has already solved cold needs no session work.
  if (options_.enable_cache) {
    if (auto hit = cache_.lookup(canonical)) {
      resp.ok = true;
      resp.cache_hit = true;
      resp.optimized_text = std::move(hit->optimized_text);  // stored bytes, untouched
      resp.original_cost = hit->original_cost;
      resp.optimized_cost = hit->optimized_cost;
      resp.iterations = 0;
      resp.seconds = timer.seconds();
      m.cache_hits.inc();
      finish(resp, metrics::RequestRecord::Outcome::kHit, nullptr);
      return resp;
    }
    m.cache_misses.inc();
  }

  // Both run paths end in extract_certified(), so one fill serves both.
  const bool use_session = options_.enable_sessions && !session_key.empty();
  const TensatResult run =
      use_session ? run_in_session(input, session_key, &resp.session_reused)
                  : run_sessionless(input);
  m.warm_entries.set(static_cast<double>(warm_.size()));
  resp.ok = run.ok;
  resp.optimized_text = save_graph_to_string(run.optimized);
  resp.original_cost = run.original_cost;
  resp.optimized_cost = run.optimized_cost;
  resp.iterations = run.explore.iterations;

  // Only cold-path results populate the cache: a session result depends on
  // the session's prior exploration, and a later hit must hand back exactly
  // what a fresh submission of the graph would have produced.
  if (!use_session && options_.enable_cache) {
    CachedResult entry;
    entry.optimized_text = resp.optimized_text;
    entry.original_cost = resp.original_cost;
    entry.optimized_cost = resp.optimized_cost;
    cache_.insert(canonical, std::move(entry));
    m.cache_entries.set(static_cast<double>(cache_.size()));
  }
  resp.seconds = timer.seconds();
  finish(resp,
         use_session ? metrics::RequestRecord::Outcome::kSession
                     : metrics::RequestRecord::Outcome::kCold,
         &run);
  return resp;
}

TensatResult OptimizationService::run_sessionless(const Graph& input) {
  TensatOptions t = options_.tensat;
  if (options_.enable_warm_starts) t.ilp.warm_cache = &warm_;
  return optimize(input, rules_, model_, t);
}

TensatResult OptimizationService::run_in_session(const Graph& input,
                                                 const std::string& key,
                                                 bool* reused_out) {
  Instruments& m = *instruments_;
  std::shared_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = sessions_[key];
    if (slot == nullptr) {
      slot = std::make_shared<Session>();
      m.sessions_created.inc();
      m.sessions_live.set(static_cast<double>(sessions_.size()));
    }
    session = slot;
  }
  std::lock_guard<std::mutex> session_lock(session->mutex);

  // Retire an overgrown session before seeding the request into it. Reset
  // order mirrors the member order contract: the exploration state (cycle
  // journal) detaches first, then the e-graph goes away.
  if (session->eg != nullptr &&
      session->eg->num_enodes_total() > session_cap_) {
    session->exp = ExplorationSession{};
    session->eg.reset();
    m.session_enodes.add(-static_cast<double>(session->recorded_enodes));
    session->recorded_enodes = 0;
    m.sessions_retired.inc();
  }

  const bool reused = session->eg != nullptr;
  Graph g = input;
  const Id root = g.single_root();
  if (!reused) session->eg = std::make_unique<EGraph>();
  EGraph& eg = *session->eg;
  // On reuse this only ADDS (hash-consed, journaled as new classes — no
  // merges), so the persisted cycle closure resumes soundly: the first
  // iteration's lazy epoch advance drains the additions.
  auto mapping = eg.add_graph(g);
  eg.set_root(mapping.at(root));

  TensatOptions t = options_.tensat;
  if (options_.enable_warm_starts) t.ilp.warm_cache = &warm_;
  // Fresh headroom per run: an explored session would otherwise arrive at
  // the limit already and stop before its first iteration.
  t.node_limit = options_.tensat.node_limit + eg.num_enodes_total();

  ExploreStats explore = run_exploration(eg, rules_, t, &session->exp);
  TensatResult result = extract_certified(eg, input, model_, t);
  result.explore = std::move(explore);

  // Fold this session's growth into the service-wide e-node gauge.
  const size_t now_enodes = eg.num_enodes_total();
  m.session_enodes.add(static_cast<double>(now_enodes) -
                       static_cast<double>(session->recorded_enodes));
  session->recorded_enodes = now_enodes;

  if (reused) m.sessions_reused.inc();
  *reused_out = reused;
  return result;
}

ServiceStats OptimizationService::stats() const {
  const Instruments& m = *instruments_;
  ServiceStats s;
  s.requests = m.requests.value();
  s.errors = m.errors.value();
  s.cache_hits = m.cache_hits.value();
  s.cache_misses = m.cache_misses.value();
  s.sessions_created = m.sessions_created.value();
  s.sessions_reused = m.sessions_reused.value();
  s.sessions_retired = m.sessions_retired.value();
  return s;
}

size_t OptimizationService::live_sessions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sessions_.size();
}

}  // namespace service
}  // namespace tensat
