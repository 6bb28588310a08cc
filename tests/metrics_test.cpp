// Tests for the service metrics layer (src/metrics/):
//  * primitives — sharded counters/gauges/histograms record exactly, alone
//    and under concurrency (1/2/8 threads; run under ASan and TSan in CI);
//  * quantile math — bucket-edge inclusivity, interpolation bounds,
//    monotonicity, over/underflow, the empty histogram, snapshot merging;
//  * exposition — Prometheus text format (TYPE lines, bucket cumulativity,
//    +Inf == count, label escaping) and the JSON exposition (validated with
//    the same mini recursive-descent parser trace_test uses);
//  * flight recorder — ring eviction order, slow-request capture producing
//    a valid Chrome trace dump, the fast path NOT capturing, dump caps;
//  * service integration — OptimizationService populates per-outcome
//    latency histograms, hit-ratio gauges, and monotone request ids, and
//    the slow-threshold knob dumps through the serving path.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "metrics/flight.h"
#include "metrics/metrics.h"
#include "models/models.h"
#include "rewrite/rules.h"
#include "serialize/serialize.h"
#include "service/service.h"

namespace tensat {
namespace {

// ---- Minimal JSON validity checker (structure only, no DOM) ---------------

struct JsonCursor {
  const std::string& s;
  size_t i{0};
  bool ok{true};

  void ws() {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  }
  bool eat(char c) {
    ws();
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    return false;
  }
  void value() {
    if (!ok) return;
    ws();
    if (i >= s.size()) {
      ok = false;
      return;
    }
    const char c = s[i];
    if (c == '{') {
      ++i;
      if (eat('}')) return;
      do {
        ws();
        string();
        if (!eat(':')) ok = false;
        value();
        if (!ok) return;
      } while (eat(','));
      if (!eat('}')) ok = false;
    } else if (c == '[') {
      ++i;
      if (eat(']')) return;
      do {
        value();
        if (!ok) return;
      } while (eat(','));
      if (!eat(']')) ok = false;
    } else if (c == '"') {
      string();
    } else if (c == 't') {
      literal("true");
    } else if (c == 'f') {
      literal("false");
    } else if (c == 'n') {
      literal("null");
    } else {
      number();
    }
  }
  void string() {
    ws();
    if (i >= s.size() || s[i] != '"') {
      ok = false;
      return;
    }
    ++i;
    while (i < s.size() && s[i] != '"') {
      const unsigned char c = static_cast<unsigned char>(s[i]);
      if (c < 0x20) {  // raw control characters are invalid inside strings
        ok = false;
        return;
      }
      if (s[i] == '\\') {
        ++i;
        if (i >= s.size()) {
          ok = false;
          return;
        }
        const char e = s[i];
        if (e == 'u') {
          for (int k = 0; k < 4; ++k) {
            ++i;
            if (i >= s.size() ||
                !std::isxdigit(static_cast<unsigned char>(s[i]))) {
              ok = false;
              return;
            }
          }
        } else if (e != '"' && e != '\\' && e != '/' && e != 'b' && e != 'f' &&
                   e != 'n' && e != 'r' && e != 't') {
          ok = false;
          return;
        }
      }
      ++i;
    }
    if (i >= s.size()) {
      ok = false;
      return;
    }
    ++i;  // closing quote
  }
  void number() {
    const size_t start = i;
    if (i < s.size() && (s[i] == '-' || s[i] == '+')) ++i;
    bool digits = false;
    while (i < s.size() && (std::isdigit(static_cast<unsigned char>(s[i])) ||
                            s[i] == '.' || s[i] == 'e' || s[i] == 'E' ||
                            s[i] == '-' || s[i] == '+')) {
      if (std::isdigit(static_cast<unsigned char>(s[i]))) digits = true;
      ++i;
    }
    if (!digits || i == start) ok = false;
  }
  void literal(const char* lit) {
    for (const char* p = lit; *p != '\0'; ++p, ++i) {
      if (i >= s.size() || s[i] != *p) {
        ok = false;
        return;
      }
    }
  }
};

bool json_valid(const std::string& s) {
  JsonCursor c{s};
  c.value();
  c.ws();
  return c.ok && c.i == s.size();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// ---- Counter / Gauge ------------------------------------------------------

TEST(Counter, AddsAndSums) {
  metrics::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Counter, ConcurrentAddsAreExact) {
  metrics::Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.inc();
    });
  for (auto& t : threads) t.join();
  // Relaxed sharded adds still sum exactly — no observation is lost.
  EXPECT_EQ(c.value(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(Gauge, SetAndAdd) {
  metrics::Gauge g;
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  g.set(7.0);  // set overwrites accumulated state
  EXPECT_DOUBLE_EQ(g.value(), 7.0);
}

// ---- Histogram buckets and quantiles --------------------------------------

TEST(Histogram, CountAndSum) {
  metrics::Histogram h(1e-6);
  h.observe(0.001);
  h.observe(0.002);
  h.observe(0.004);
  const metrics::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_NEAR(s.sum, 0.007, 1e-12);
  EXPECT_EQ(s.cumulative.back(), s.count);  // +Inf bucket holds everything
}

TEST(Histogram, BucketUpperEdgeIsInclusive) {
  // Prometheus `le` semantics: a value exactly on a bucket's upper bound
  // counts in that bucket, not the next one.
  metrics::Histogram h(1.0);
  h.observe(1.0);  // == lowest -> bucket 0
  h.observe(2.0);  // == bound of bucket 1
  h.observe(4.0);  // == bound of bucket 2
  const metrics::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.cumulative[0], 1u);
  EXPECT_EQ(s.cumulative[1], 2u);
  EXPECT_EQ(s.cumulative[2], 3u);
}

TEST(Histogram, QuantileWithinContainingBucket) {
  metrics::Histogram h(1.0);
  for (int i = 0; i < 100; ++i) h.observe(3.0);  // bucket (2, 4]
  const metrics::HistogramSnapshot s = h.snapshot();
  const double p50 = s.quantile(0.5);
  EXPECT_GE(p50, 2.0);
  EXPECT_LE(p50, 4.0);
}

TEST(Histogram, QuantilesAreMonotone) {
  metrics::Histogram h(1e-6);
  for (int i = 1; i <= 1000; ++i) h.observe(i * 1e-4);
  const metrics::HistogramSnapshot s = h.snapshot();
  const double p50 = s.quantile(0.5);
  const double p90 = s.quantile(0.9);
  const double p99 = s.quantile(0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  // The true p50 is 0.05s; the log-bucket estimate is within a factor of 2.
  EXPECT_GE(p50, 0.025);
  EXPECT_LE(p50, 0.1);
}

TEST(Histogram, UnderflowAndOverflow) {
  metrics::Histogram h(1.0);
  h.observe(1e-9);  // below lowest -> bucket 0
  h.observe(1e12);  // beyond the finite grid -> +Inf bucket
  const metrics::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.cumulative[0], 1u);
  EXPECT_EQ(s.count, 2u);
  // A quantile landing in the +Inf bucket reports the largest finite bound
  // (the Prometheus histogram_quantile convention), never infinity.
  const double p99 = s.quantile(0.99);
  EXPECT_TRUE(std::isfinite(p99));
  EXPECT_DOUBLE_EQ(p99, s.upper_bound(metrics::Histogram::kBuckets - 1));
}

TEST(Histogram, EmptyQuantileIsZero) {
  metrics::Histogram h;
  EXPECT_DOUBLE_EQ(h.snapshot().quantile(0.5), 0.0);
}

TEST(Histogram, MergeSnapshots) {
  metrics::Histogram a(1e-6);
  metrics::Histogram b(1e-6);
  for (int i = 0; i < 10; ++i) a.observe(0.001);
  for (int i = 0; i < 30; ++i) b.observe(0.1);
  const metrics::HistogramSnapshot merged =
      metrics::merge_snapshots({a.snapshot(), b.snapshot()});
  EXPECT_EQ(merged.count, 40u);
  EXPECT_NEAR(merged.sum, 10 * 0.001 + 30 * 0.1, 1e-9);
  // 75% of mass sits at 0.1s, so the median must come from b's bucket.
  EXPECT_GE(merged.quantile(0.5), 0.05);
}

TEST(Histogram, ConcurrentObservationsAreExact) {
  for (const int threads : {1, 2, 8}) {
    metrics::Histogram h(1e-6);
    constexpr int kPerThread = 20000;
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t)
      pool.emplace_back([&h, t] {
        for (int i = 0; i < kPerThread; ++i)
          h.observe(1e-4 * (1 + ((t + i) % 7)));
      });
    for (auto& t : pool) t.join();
    const metrics::HistogramSnapshot s = h.snapshot();
    EXPECT_EQ(s.count, static_cast<uint64_t>(threads) * kPerThread)
        << "threads=" << threads;
    EXPECT_EQ(s.cumulative.back(), s.count);
  }
}

// ---- Registry -------------------------------------------------------------

TEST(Registry, SameFamilyAndLabelsReturnsSameHandle) {
  metrics::MetricsRegistry reg;
  metrics::Counter& a = reg.counter("tensat_test_total", {{"kind", "x"}});
  metrics::Counter& b = reg.counter("tensat_test_total", {{"kind", "x"}});
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
}

TEST(Registry, DistinctLabelsAreDistinctInstances) {
  metrics::MetricsRegistry reg;
  metrics::Counter& a = reg.counter("tensat_test_total", {{"kind", "x"}});
  metrics::Counter& b = reg.counter("tensat_test_total", {{"kind", "y"}});
  EXPECT_NE(&a, &b);
  a.inc();
  EXPECT_EQ(b.value(), 0u);
  EXPECT_EQ(reg.families(), 1u);
}

TEST(Registry, TypeConflictThrows) {
  metrics::MetricsRegistry reg;
  reg.counter("tensat_conflict");
  EXPECT_THROW(reg.gauge("tensat_conflict"), std::exception);
  EXPECT_THROW(reg.histogram("tensat_conflict"), std::exception);
}

// ---- Exposition -----------------------------------------------------------

TEST(Exposition, PrometheusTextFormat) {
  metrics::MetricsRegistry reg;
  reg.counter("tensat_req_total", {}, "requests").add(5);
  reg.gauge("tensat_depth", {}, "queue depth").set(2.0);
  metrics::Histogram& h =
      reg.histogram("tensat_lat_seconds", {{"outcome", "hit"}}, "latency");
  h.observe(0.001);
  h.observe(0.002);

  std::ostringstream out;
  reg.expose_prometheus(out);
  const std::string text = out.str();

  EXPECT_NE(text.find("# TYPE tensat_req_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("# HELP tensat_req_total requests\n"), std::string::npos);
  EXPECT_NE(text.find("tensat_req_total 5\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE tensat_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE tensat_lat_seconds histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("tensat_lat_seconds_bucket{outcome=\"hit\",le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("tensat_lat_seconds_count{outcome=\"hit\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("tensat_lat_seconds_sum{outcome=\"hit\"} "),
            std::string::npos);
}

TEST(Exposition, BucketSeriesIsCumulative) {
  metrics::MetricsRegistry reg;
  metrics::Histogram& h = reg.histogram("tensat_c_seconds");
  for (int i = 1; i <= 64; ++i) h.observe(i * 1e-5);
  std::ostringstream out;
  reg.expose_prometheus(out);

  // Parse every _bucket line back out; the counts must never decrease and
  // the +Inf bucket must equal _count.
  std::istringstream in(out.str());
  std::string line;
  uint64_t prev = 0;
  uint64_t inf_value = 0;
  uint64_t count_value = 0;
  while (std::getline(in, line)) {
    if (line.rfind("tensat_c_seconds_bucket", 0) == 0) {
      const uint64_t v =
          std::stoull(line.substr(line.find_last_of(' ') + 1));
      EXPECT_GE(v, prev) << line;
      prev = v;
      if (line.find("le=\"+Inf\"") != std::string::npos) inf_value = v;
    } else if (line.rfind("tensat_c_seconds_count", 0) == 0) {
      count_value = std::stoull(line.substr(line.find_last_of(' ') + 1));
    }
  }
  EXPECT_EQ(inf_value, 64u);
  EXPECT_EQ(count_value, 64u);
}

TEST(Exposition, LabelValuesAreEscaped) {
  metrics::MetricsRegistry reg;
  reg.counter("tensat_esc_total", {{"path", "a\"b\\c\nd"}}).inc();
  std::ostringstream out;
  reg.expose_prometheus(out);
  // Quote, backslash, and newline must appear escaped inside the label.
  EXPECT_NE(out.str().find("path=\"a\\\"b\\\\c\\nd\""), std::string::npos)
      << out.str();
}

TEST(Exposition, JsonIsValidAndCarriesQuantiles) {
  metrics::MetricsRegistry reg;
  reg.counter("tensat_req_total").add(7);
  reg.gauge("tensat_ratio").set(0.5);
  metrics::Histogram& h = reg.histogram("tensat_lat_seconds");
  for (int i = 0; i < 100; ++i) h.observe(0.001);
  std::ostringstream out;
  reg.expose_json(out);
  const std::string json = out.str();
  EXPECT_TRUE(json_valid(json)) << json;
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

// ---- Flight recorder ------------------------------------------------------

metrics::RequestRecord make_record(uint64_t id, double seconds) {
  metrics::RequestRecord r;
  r.request_id = id;
  r.fingerprint = 0x1234 + id;
  r.outcome = metrics::RequestRecord::Outcome::kCold;
  r.seconds = seconds;
  r.iterations = 3;
  r.search_seconds = seconds * 0.25;
  r.apply_seconds = seconds * 0.25;
  r.solve_seconds = seconds * 0.25;
  r.milp_gap = 0.01;
  return r;
}

TEST(FlightRecorder, RingEvictsOldestFirst) {
  metrics::FlightRecorder::Options opt;
  opt.capacity = 4;
  metrics::FlightRecorder fr(opt);
  for (uint64_t id = 1; id <= 10; ++id) fr.record(make_record(id, 0.001));
  EXPECT_EQ(fr.total_recorded(), 10u);
  const std::vector<metrics::RequestRecord> ring = fr.snapshot();
  ASSERT_EQ(ring.size(), 4u);
  for (size_t i = 0; i < ring.size(); ++i)
    EXPECT_EQ(ring[i].request_id, 7u + i);  // 7, 8, 9, 10 — oldest first
}

TEST(FlightRecorder, SlowRequestCaptureDumpsValidTrace) {
  metrics::FlightRecorder::Options opt;
  opt.slow_threshold_s = 0.010;
  opt.dump_dir = ::testing::TempDir();
  metrics::FlightRecorder fr(opt);
  fr.record(make_record(1, 0.002));  // fast: recorded, NOT captured
  fr.record(make_record(2, 0.500));  // slow: captured
  EXPECT_EQ(fr.total_recorded(), 2u);
  ASSERT_EQ(fr.dumps_written(), 1u);
  const std::vector<std::string> paths = fr.dump_paths();
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_NE(paths[0].find("slow_request_2.json"), std::string::npos);
  const std::string dump = slurp(paths[0]);
  EXPECT_TRUE(json_valid(dump)) << paths[0];
  // The dump is the request's phase breakdown as spans.
  EXPECT_NE(dump.find("explore/search"), std::string::npos);
  EXPECT_NE(dump.find("extract/solve"), std::string::npos);
  std::remove(paths[0].c_str());
}

TEST(FlightRecorder, DumpCountIsBounded) {
  metrics::FlightRecorder::Options opt;
  opt.slow_threshold_s = 0.001;
  opt.max_dumps = 2;
  opt.dump_dir = ::testing::TempDir();
  metrics::FlightRecorder fr(opt);
  for (uint64_t id = 1; id <= 5; ++id) fr.record(make_record(id, 1.0));
  EXPECT_EQ(fr.dumps_written(), 2u);  // the cap, not 5
  for (const std::string& p : fr.dump_paths()) std::remove(p.c_str());
}

TEST(FlightRecorder, ThresholdDisabledCapturesNothing) {
  metrics::FlightRecorder fr;  // slow_threshold_s = 0 -> capture off
  fr.record(make_record(1, 100.0));
  EXPECT_EQ(fr.total_recorded(), 1u);
  EXPECT_EQ(fr.dumps_written(), 0u);
}

TEST(FlightRecorder, ConcurrentRecordsAllLand) {
  metrics::FlightRecorder::Options opt;
  opt.capacity = 64;
  metrics::FlightRecorder fr(opt);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([&fr, t] {
      for (int i = 0; i < kPerThread; ++i)
        fr.record(make_record(static_cast<uint64_t>(t) * kPerThread + i,
                              0.0001));
    });
  for (auto& t : pool) t.join();
  EXPECT_EQ(fr.total_recorded(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(fr.snapshot().size(), 64u);
}

// ---- Service integration --------------------------------------------------

const T4CostModel& model() {
  static const T4CostModel m;
  return m;
}

service::ServiceOptions fast_options() {
  service::ServiceOptions opt;
  opt.tensat.k_max = 2;
  opt.tensat.k_multi = 1;
  opt.tensat.node_limit = 300;
  opt.tensat.explore_time_limit_s = 10.0;
  opt.tensat.ilp.time_limit_s = 5.0;
  return opt;
}

std::string small_graph_text() {
  Graph g;
  const Id x = g.input("x", {32, 32});
  for (int i = 0; i < 3; ++i)
    g.add_root(g.matmul(x, g.weight("w" + std::to_string(i), {32, 32})));
  return save_graph_to_string(g);
}

/// stats() reads the registry, so every ServiceStats field must equal both
/// its tensat_service_*_total counter and the count `want` expects.
void expect_stats(const service::OptimizationService& svc,
                  const service::ServiceStats& want) {
  const service::ServiceStats got = svc.stats();
  metrics::MetricsRegistry& reg = *svc.metrics();
  const struct {
    const char* counter;
    size_t got;
    size_t want;
  } fields[] = {
      {"tensat_service_requests_total", got.requests, want.requests},
      {"tensat_service_errors_total", got.errors, want.errors},
      {"tensat_service_cache_hits_total", got.cache_hits, want.cache_hits},
      {"tensat_service_cache_misses_total", got.cache_misses,
       want.cache_misses},
      {"tensat_service_sessions_created_total", got.sessions_created,
       want.sessions_created},
      {"tensat_service_sessions_reused_total", got.sessions_reused,
       want.sessions_reused},
      {"tensat_service_sessions_retired_total", got.sessions_retired,
       want.sessions_retired},
  };
  for (const auto& f : fields) {
    EXPECT_EQ(f.got, f.want) << f.counter;
    EXPECT_EQ(reg.counter(f.counter).value(), f.got) << f.counter;
  }
}

/// The size gauges are set where the sizes change (cache insert, warm-cache
/// store, session creation), not on every request, so after any outcome
/// they must still read exactly what the service's own accessors report.
void expect_size_gauges(const service::OptimizationService& svc) {
  metrics::MetricsRegistry& reg = *svc.metrics();
  EXPECT_EQ(reg.gauge("tensat_service_cache_entries").value(),
            static_cast<double>(svc.cache_size()));
  EXPECT_EQ(reg.gauge("tensat_service_warm_entries").value(),
            static_cast<double>(svc.warm_entries()));
  EXPECT_EQ(reg.gauge("tensat_service_sessions_live").value(),
            static_cast<double>(svc.live_sessions()));
}

TEST(ServiceMetrics, StatsEqualRegistryForEveryOutcome) {
  const std::string text = small_graph_text();
  // A session graph the cache has never seen, so every session submission
  // is a miss that runs the session path.
  Graph g = load_graph_from_string(text);
  g.add_root(g.relu(g.input("p", {32, 32})));
  const std::string session_text = save_graph_to_string(g);

  {
    service::OptimizationService svc(default_rules(), model(), fast_options());
    ASSERT_FALSE(svc.submit(text).cache_hit);                   // miss
    expect_size_gauges(svc);
    ASSERT_TRUE(svc.submit(text).cache_hit);                    // hit
    expect_size_gauges(svc);
    ASSERT_FALSE(svc.submit("not a graph").ok);                 // malformed
    expect_size_gauges(svc);
    ASSERT_FALSE(svc.submit(session_text, "s").session_reused);  // created
    expect_size_gauges(svc);
    ASSERT_TRUE(svc.submit(session_text, "s").session_reused);   // resumed
    expect_size_gauges(svc);
    service::ServiceStats want;
    want.requests = 5;
    want.errors = 1;
    want.cache_hits = 1;
    want.cache_misses = 3;
    want.sessions_created = 1;
    want.sessions_reused = 1;
    expect_stats(svc, want);
  }
  {
    // Any explored e-graph outgrows a cap of one e-node, so the second
    // request retires the session and restarts it in place.
    service::ServiceOptions opt = fast_options();
    opt.session_node_cap = 1;
    service::OptimizationService svc(default_rules(), model(), opt);
    ASSERT_TRUE(svc.submit(session_text, "s").ok);                // created
    expect_size_gauges(svc);
    metrics::Gauge& enodes = svc.metrics()->gauge("tensat_service_session_enodes");
    const double first_enodes = enodes.value();
    EXPECT_GT(first_enodes, 0.0);
    ASSERT_FALSE(svc.submit(session_text, "s").session_reused);  // retired
    expect_size_gauges(svc);
    // Retirement subtracts the old e-graph and the restart adds a fresh
    // exploration of the same graph, which grows to the same size.
    EXPECT_EQ(enodes.value(), first_enodes);
    service::ServiceStats want;
    want.requests = 2;
    want.cache_misses = 2;
    want.sessions_created = 1;
    want.sessions_retired = 1;
    expect_stats(svc, want);
  }
}

TEST(ServiceMetrics, OutcomesLatencyAndRequestIds) {
  service::OptimizationService svc(default_rules(), model(), fast_options());
  ASSERT_NE(svc.metrics(), nullptr);

  const std::string text = small_graph_text();
  const service::ServiceResponse cold = svc.submit(text);
  const service::ServiceResponse hit = svc.submit(text);
  const service::ServiceResponse bad = svc.submit("not a graph");
  ASSERT_TRUE(cold.ok);
  ASSERT_TRUE(hit.ok);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_FALSE(bad.ok);

  // Request ids are process-unique and monotone across outcomes.
  EXPECT_EQ(cold.request_id + 1, hit.request_id);
  EXPECT_EQ(hit.request_id + 1, bad.request_id);

  metrics::MetricsRegistry& reg = *svc.metrics();
  EXPECT_EQ(reg.counter("tensat_service_requests_total").value(), 3u);
  EXPECT_EQ(reg.counter("tensat_service_errors_total").value(), 1u);
  EXPECT_EQ(reg.counter("tensat_service_cache_hits_total").value(), 1u);
  EXPECT_EQ(reg.counter("tensat_service_cache_misses_total").value(), 1u);
  EXPECT_DOUBLE_EQ(reg.gauge("tensat_service_cache_hit_ratio").value(), 0.5);
  EXPECT_GE(reg.gauge("tensat_service_cache_entries").value(), 1.0);

  // One observation per outcome in the right latency histogram.
  using Labels = metrics::Labels;
  EXPECT_EQ(reg.histogram("tensat_service_submit_seconds",
                          Labels{{"outcome", "cold"}})
                .snapshot()
                .count,
            1u);
  EXPECT_EQ(reg.histogram("tensat_service_submit_seconds",
                          Labels{{"outcome", "hit"}})
                .snapshot()
                .count,
            1u);
  EXPECT_EQ(reg.histogram("tensat_service_submit_seconds",
                          Labels{{"outcome", "error"}})
                .snapshot()
                .count,
            1u);

  // Every request got a flight-recorder record, in submission order.
  const std::vector<metrics::RequestRecord> ring =
      svc.flight_recorder()->snapshot();
  ASSERT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring[0].request_id, cold.request_id);
  EXPECT_EQ(ring[2].outcome, metrics::RequestRecord::Outcome::kError);
  // The cold run carried its phase breakdown and e-graph size.
  EXPECT_GT(ring[0].enodes_total, 0u);
  EXPECT_GE(ring[0].stop_reason, 0);
}

TEST(ServiceMetrics, SessionOutcomeAndGauges) {
  service::OptimizationService svc(default_rules(), model(), fast_options());
  const std::string text = small_graph_text();
  ASSERT_TRUE(svc.submit(text, "sess").ok);
  metrics::MetricsRegistry& reg = *svc.metrics();
  EXPECT_EQ(reg.counter("tensat_service_sessions_created_total").value(), 1u);
  EXPECT_EQ(reg.histogram("tensat_service_submit_seconds",
                          metrics::Labels{{"outcome", "session"}})
                .snapshot()
                .count,
            1u);
  EXPECT_DOUBLE_EQ(reg.gauge("tensat_service_sessions_live").value(), 1.0);
  EXPECT_GT(reg.gauge("tensat_service_session_enodes").value(), 0.0);
}

TEST(ServiceMetrics, SlowThresholdCapturesThroughServingPath) {
  service::ServiceOptions opt = fast_options();
  opt.slow_threshold_s = 1e-9;  // everything is "slow"
  opt.slow_dump_dir = ::testing::TempDir();
  opt.max_slow_dumps = 1;
  service::OptimizationService svc(default_rules(), model(), opt);
  ASSERT_TRUE(svc.submit(small_graph_text()).ok);
  ASSERT_EQ(svc.flight_recorder()->dumps_written(), 1u);
  const std::string dump = slurp(svc.flight_recorder()->dump_paths()[0]);
  EXPECT_TRUE(json_valid(dump));
  EXPECT_NE(dump.find("explore/search"), std::string::npos);
  std::remove(svc.flight_recorder()->dump_paths()[0].c_str());
}

TEST(ServiceMetrics, PrometheusScrapeOfLiveService) {
  service::OptimizationService svc(default_rules(), model(), fast_options());
  const std::string text = small_graph_text();
  ASSERT_TRUE(svc.submit(text).ok);
  ASSERT_TRUE(svc.submit(text).ok);
  std::ostringstream prom;
  svc.metrics()->expose_prometheus(prom);
  EXPECT_NE(prom.str().find("tensat_service_requests_total 2"),
            std::string::npos);
  EXPECT_NE(prom.str().find("# TYPE tensat_service_submit_seconds histogram"),
            std::string::npos);
  std::ostringstream json;
  svc.metrics()->expose_json(json);
  EXPECT_TRUE(json_valid(json.str())) << json.str();
}

}  // namespace
}  // namespace tensat
