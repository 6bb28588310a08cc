// The service-mix workload: a closed loop of kClients client threads, each
// with its own seeded request stream, against one OptimizationService with
// the tensat_service settings (k_max 4, node limit 500). A client sends its
// next request only when the previous one has returned. The stream mixes
//
//   ~80% repeats   drawn with Zipf popularity from a 32-graph working set,
//                  far below the 256-entry result cache and filled before
//                  the timed window: the serialize/canonicalize/cache path;
//   ~15% fresh     seeded sizes of the small NasRNN, ResNeXt, NasNet,
//                  SqueezeNet and Inception builders, each made unique with
//                  a perturbation root: full cold runs that write the cache;
//    ~5% sessions  perturbed resubmissions under a few session keys, which
//                  resume the sessions' persistent e-graphs.
//
// A metrics scraper thread reads the Prometheus exposition throughout, as
// an operator's monitoring would.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <thread>

#include "checks.h"
#include "flow.h"
#include "harness.h"
#include "metrics/flight.h"
#include "metrics/metrics.h"
#include "models/models.h"
#include "rewrite/rules.h"
#include "serialize/serialize.h"
#include "service/fingerprint.h"
#include "service/service.h"

namespace perfbench {

using namespace tensat;

namespace {

constexpr int kClients = 2;
constexpr size_t kWorkingSet = 32;
constexpr int kSessionKeys = 3;
constexpr int kSetups = 5;
constexpr double kRepeatShare = 0.80;
constexpr double kFreshShare = 0.15;  // the rest are session requests
constexpr double kScrapeInterval = 0.25;
/// Fresh requests of the window replayed through optimize()'s flow in the
/// traced run, for the layer numbers the service does not expose.
constexpr size_t kReplay = 64;

service::ServiceOptions service_options(bool tiny) {
  service::ServiceOptions o;
  // bench_common.h's Table-1 settings with tensat_service's overrides.
  TensatOptions& t = o.tensat;
  t.k_max = tiny ? 3 : 4;
  t.k_multi = 1;
  t.node_limit = tiny ? 200 : 500;
  t.explore_time_limit_s = 30.0;
  t.cycle_filter = CycleFilterMode::kEfficient;
  t.extractor = ExtractorKind::kIlp;
  t.ilp.time_limit_s = 20.0;
  t.ilp.max_instance_nodes = 2600;
  // Sessions retire past the node limit instead of the default 10x. Each
  // resumed request explores up to node_limit more e-nodes, and ILP
  // extraction over a session e-graph of 1000 or more e-nodes runs into the
  // 20 s clock on every small family, so under the default cap a run's tail
  // would measure the clock, not the code. At 1x a session resumes once and
  // then restarts: its requests alternate between the two paths.
  o.session_node_cap = t.node_limit;
  // Room for every request of a run, so the per-layer numbers see them all.
  o.flight_capacity = 1 << 16;
  return o;
}

/// One of the five small model families at a seeded size. Sizes vary the
/// tensor shapes (and so the costs) while keeping each graph small enough
/// that a cold run finishes well inside the ILP clock.
Graph make_family_graph(std::mt19937_64& rng) {
  const auto pick = [&](std::initializer_list<int> options) {
    std::uniform_int_distribution<size_t> d(0, options.size() - 1);
    return *(options.begin() + d(rng));
  };
  switch (std::uniform_int_distribution<int>(0, 4)(rng)) {
    case 0: return make_nasrnn(1, pick({1, 2, 4, 8}), pick({8, 16, 32, 64}));
    case 1: return make_resnext50(1, pick({8, 16, 32}), pick({4, 8, 16}), 2);
    case 2: return make_nasnet_a(1, pick({4, 8, 16}), pick({4, 8, 16}));
    case 3: return make_squeezenet(1, pick({8, 16, 32}), pick({8, 16}));
    default: return make_inception_v3(1, pick({8, 16}), pick({8, 16}));
  }
}

/// Makes `g` unique under the canonical form: one extra disjoint root.
std::string with_perturbation(Graph g, const std::string& tag) {
  g.add_root(g.relu(g.input("perturb_" + tag, {16, 16})));
  return save_graph_to_string(g);
}

enum class Kind { kRepeat, kFresh, kSession };

/// One request as the client saw it.
struct Sample {
  Kind kind{Kind::kRepeat};
  double seconds{0.0};
  size_t text{0};  // index into the client's texts (fresh/session) or the working set
  bool ok{false};
  bool cache_hit{false};
  bool session_reused{false};
  uint64_t request_id{0};
  std::string output;
  double original_cost{0.0};
  double optimized_cost{0.0};
};

struct Client {
  std::vector<std::string> texts;  // fresh and session request texts sent
  std::vector<Sample> samples;
  Clock::time_point finished;
  std::exception_ptr error;  // what ended the client's loop early, if anything
};

/// The working set, its serialized texts and the session bases: built from
/// a fixed seed, so every run serves the same popular graphs.
struct Inputs {
  std::vector<std::string> working_set;
  std::vector<Graph> session_bases;
};

Inputs build_inputs() {
  Inputs in;
  std::mt19937_64 rng(0x5eed);
  for (size_t i = 0; i < kWorkingSet; ++i)
    in.working_set.push_back(with_perturbation(make_family_graph(rng), "ws" + std::to_string(i)));
  // ResNeXt is left out: its second resume still reaches a multi-second
  // extraction before the session retires.
  in.session_bases.push_back(make_inception_v3(1, 8, 8));
  in.session_bases.push_back(make_squeezenet(1, 8, 8));
  in.session_bases.push_back(make_nasnet_a(1, 4, 8));
  return in;
}

struct Fill {
  std::unique_ptr<service::OptimizationService> svc;
  std::vector<service::ServiceResponse> responses;  // per working-set graph
};

Fill construct_and_fill(const Inputs& in, const service::ServiceOptions& options) {
  Fill f;
  f.svc = std::make_unique<service::OptimizationService>(default_rules(), cost_model(), options);
  for (const std::string& text : in.working_set) f.responses.push_back(f.svc->submit(text));
  return f;
}

/// One client's closed loop: the next request goes out when the previous
/// one has returned, until the deadline.
void send_requests(int id, const RunConfig& config, const Inputs& in,
                   const std::vector<service::ServiceResponse>& cold,
                   service::OptimizationService& svc, Clock::time_point deadline,
                   SpanLog& spans, Client& out) {
  std::mt19937_64 rng(config.seed * 1000003ULL + static_cast<uint64_t>(id));
  // Zipf popularity over the working set in its fixed order. Which graphs
  // are popular is part of the workload, not of the seed: a hit's latency
  // grows with its graph's size, so a seeded ranking would move the median.
  std::vector<double> weights;
  for (size_t r = 0; r < kWorkingSet; ++r) weights.push_back(1.0 / static_cast<double>(r + 1));
  std::discrete_distribution<size_t> popularity(weights.begin(), weights.end());
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<int> session_key(0, kSessionKeys - 1);

  const std::string prefix = "c" + std::to_string(id) + "_";
  while (Clock::now() < deadline) {
    Sample s;
    const std::string* text = nullptr;
    std::string key;
    const double u = unit(rng);
    if (u < kRepeatShare) {
      s.kind = Kind::kRepeat;
      s.text = popularity(rng);
      text = &in.working_set[s.text];
    } else {
      const bool fresh = u < kRepeatShare + kFreshShare;
      s.kind = fresh ? Kind::kFresh : Kind::kSession;
      const std::string tag = prefix + std::to_string(out.texts.size());
      if (fresh) {
        out.texts.push_back(with_perturbation(make_family_graph(rng), tag));
      } else {
        const int k = session_key(rng);
        key = "session" + std::to_string(k);
        out.texts.push_back(with_perturbation(in.session_bases[static_cast<size_t>(k)], tag));
      }
      s.text = out.texts.size() - 1;
      text = &out.texts.back();
    }
    const Clock::time_point t0 = Clock::now();
    service::ServiceResponse r =
        traced(spans, "service.submit", [&] { return svc.submit(*text, key); });
    s.seconds = seconds_between(t0, Clock::now());
    s.ok = r.ok;
    s.cache_hit = r.cache_hit;
    s.session_reused = r.session_reused;
    s.request_id = r.request_id;
    // A hit carrying the cold run's bytes keeps no copy (that output is
    // checked once); anything else is kept for the checks.
    if (!(s.kind == Kind::kRepeat && s.cache_hit && r.optimized_text == cold[s.text].optimized_text))
      s.output = std::move(r.optimized_text);
    s.original_cost = r.original_cost;
    s.optimized_cost = r.optimized_cost;
    out.samples.push_back(std::move(s));
  }
}

/// A client thread's entry: sends its stream and keeps what ended it.
void client_loop(int id, const RunConfig& config, const Inputs& in,
                 const std::vector<service::ServiceResponse>& cold,
                 service::OptimizationService& svc, Clock::time_point deadline,
                 SpanLog& spans, Client& out) {
  try {
    send_requests(id, config, in, cold, svc, deadline, spans, out);
  } catch (...) {
    out.error = std::current_exception();
  }
  out.finished = Clock::now();
}

std::vector<double> latencies(const std::vector<Client>& clients, int which) {
  // which: 0 all, 1 hits, 2 cold (sessionless misses), 3 session requests
  std::vector<double> out;
  for (const Client& c : clients)
    for (const Sample& s : c.samples) {
      const bool cold = !s.cache_hit && s.kind != Kind::kSession;
      if (which == 0 || (which == 1 && s.cache_hit) || (which == 2 && cold) ||
          (which == 3 && s.kind == Kind::kSession))
        out.push_back(s.seconds);
    }
  return out;
}

}  // namespace

Report run_service_mix(const RunConfig& config) {
  SpanLog spans(config.trace);
  const service::ServiceOptions options = service_options(config.tiny);
  Report report;

  // Setup: the rule set, then, repeated, build the inputs, construct the
  // service and fill its cache with the working set. The last service is
  // measured.
  Inputs in;
  Fill fill;
  const double setup_s = setup_seconds(kSetups, [&](int) {
    fill = Fill{};
    in = build_inputs();
    fill = construct_and_fill(in, options);
  });
  service::OptimizationService& svc = *fill.svc;
  double log_speedup = 0.0;
  for (const service::ServiceResponse& r : fill.responses) {
    if (!r.ok || r.cache_hit) throw std::runtime_error("working-set fill did not run cold");
    log_speedup += std::log(r.original_cost / r.optimized_cost);
  }
  const service::ServiceStats before = svc.stats();
  metrics::MetricsRegistry& registry = *svc.metrics();
  const auto counter = [&](const char* family) {
    return static_cast<double>(registry.counter(family).value());
  };
  const double warm_hits_before = counter("tensat_service_warm_start_hits_total");
  const double refactor_before = counter("tensat_service_refactorizations_total");
  const uint64_t first_timed_id = fill.responses.back().request_id + 1;

  // The timed window: the clients and the scraper.
  std::vector<Client> clients(kClients);
  std::vector<double> scrapes;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(config.seconds));
  std::atomic<bool> clients_done{false};
  std::thread scraper([&] {
    while (!clients_done.load()) {
      const Clock::time_point t0 = Clock::now();
      std::ostringstream body;
      traced(spans, "metrics.scrape", [&] { registry.expose_prometheus(body); });
      scrapes.push_back(seconds_between(t0, Clock::now()));
      std::this_thread::sleep_until(t0 + std::chrono::duration_cast<Clock::duration>(
                                             std::chrono::duration<double>(kScrapeInterval)));
    }
  });
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c)
    threads.emplace_back(client_loop, c, std::cref(config), std::cref(in),
                         std::cref(fill.responses), std::ref(svc),
                         deadline, std::ref(spans), std::ref(clients[static_cast<size_t>(c)]));
  for (std::thread& t : threads) t.join();
  clients_done.store(true);
  scraper.join();
  for (const Client& c : clients)
    if (c.error) std::rethrow_exception(c.error);
  Clock::time_point finished = start;
  for (const Client& c : clients) finished = std::max(finished, c.finished);
  const double window = seconds_between(start, finished);
  const service::ServiceStats after = svc.stats();

  // The window's requests whose ILP extraction ended without a proof: on
  // the clock, or with a gap above the B&B's target and no oversized core
  // to explain it. They fail, as on table1-ilp.
  const std::vector<metrics::RequestRecord> records = svc.flight_recorder()->snapshot();
  std::set<uint64_t> unproven;
  for (const metrics::RequestRecord& r : records) {
    const bool extracted = r.outcome == metrics::RequestRecord::Outcome::kCold ||
                           r.outcome == metrics::RequestRecord::Outcome::kSession;
    if (r.request_id < first_timed_id || !extracted) continue;
    if (r.solve_seconds >= 0.99 * options.tensat.ilp.time_limit_s ||
        (r.milp_gap > options.tensat.ilp.rel_gap && r.fallback_cores == 0))
      unproven.insert(r.request_id);
  }

  // Checks, outside the window: every response ok, every hit byte-identical
  // to the cold run that filled its entry, every distinct output valid.
  std::map<std::string, std::string> verdicts;  // output text -> problem ("" = ok)
  size_t interpreted = 0;
  const auto check = [&](const std::string& input_text, const std::string& output,
                         double optimized_cost) -> const std::string& {
    auto it = verdicts.find(output);
    if (it != verdicts.end()) return it->second;
    std::string problem;
    try {
      const Graph input = load_graph_from_string(input_text);
      const Graph graph = load_graph_from_string(output);
      bool interp = false;
      problem = check_output(input, graph, optimized_cost, config.seed, &interp);
      interpreted += interp ? 1 : 0;
    } catch (const std::exception& e) {
      problem = std::string("output does not load: ") + e.what();
    }
    return verdicts.emplace(output, problem).first->second;
  };
  long attempted = 0;
  long failed = 0;
  std::map<std::string, long> problems;
  for (const Client& c : clients)
    for (const Sample& s : c.samples) {
      ++attempted;
      std::string problem;
      if (!s.ok) {
        problem = "request failed";
      } else if (unproven.count(s.request_id) != 0) {
        problem = "ILP extraction stopped without a proof";
      } else if (s.kind == Kind::kRepeat && s.cache_hit) {
        const service::ServiceResponse& r = fill.responses[s.text];
        problem = !s.output.empty() ? "cache hit differs from the cold result"
                                    : check(in.working_set[s.text], r.optimized_text,
                                            r.optimized_cost);
      } else {
        problem = check(s.kind == Kind::kRepeat ? in.working_set[s.text] : c.texts[s.text],
                        s.output, s.optimized_cost);
      }
      if (!problem.empty()) {
        ++failed;
        ++problems[problem];
      }
    }
  for (const auto& [problem, count] : problems)
    std::printf("FAILED %ld request(s): %s\n", count, problem.c_str());
  report.attempted = attempted;
  report.failed = failed;

  const std::vector<double> all = latencies(clients, 0);
  const char* outcome_names[] = {"all", "hit", "cold", "session"};
  std::printf("%-8s %8s %10s %10s %10s %10s\n", "outcome", "samples", "p50_s", "p90_s", "p99_s",
              "max_s");
  for (int which = 0; which < 4; ++which) {
    const std::vector<double> v = latencies(clients, which);
    std::printf("%-8s %8zu %10.5f %10.5f %10.5f %10.5f\n", outcome_names[which], v.size(),
                quantile(v, 0.5), quantile(v, 0.9), quantile(v, 0.99), quantile(v, 1.0));
  }
  std::printf("window %.3f s  distinct outputs %zu (%zu interpreted)  scrapes %zu\n", window,
              verdicts.size(), interpreted, scrapes.size());

  const double p50 = quantile(all, 0.5);
  // A cold request is one full optimization through the service; thousands
  // of them across the window time it more steadily than the cache fill.
  const double cold_p50 = quantile(latencies(clients, 2), 0.5);
  report.e2e("optimize_s", cold_p50, "s");
  report.e2e("graph_speedup_geomean",
             std::exp(log_speedup / static_cast<double>(fill.responses.size())), "ratio");
  report.e2e("request_p50_s", p50, "s");
  report.e2e("request_p99_s", quantile(all, 0.99), "s");
  report.e2e("requests_per_s", static_cast<double>(all.size()) / window, "1/s");

  if (config.trace) {
    const double window_spans = static_cast<double>(spans.size());
    // The parse and canonicalization every submit performs, replayed from
    // here over the window's request texts (the service's own calls cannot
    // be timed from outside it).
    for (const Client& c : clients)
      for (const Sample& s : c.samples) {
        const std::string& text =
            s.kind == Kind::kRepeat ? in.working_set[s.text] : c.texts[s.text];
        const Graph g = traced(spans, "serialize.load", [&] { return load_graph_from_string(text); });
        (void)traced(spans, "service.canonical_form", [&] { return service::canonical_form(g); });
      }
    report.layer("serialize.load_s", spans.total("serialize.load"), "s");
    report.layer("service.canonical_form_s", spans.total("service.canonical_form"), "s");
    report.layer("service.submit_hit_s.p50", quantile(latencies(clients, 1), 0.5), "s");
    report.layer("service.submit_cold_s.p99", quantile(latencies(clients, 2), 0.99), "s");
    report.layer("service.submit_session_s.p99", quantile(latencies(clients, 3), 0.99), "s");
    const double hits = static_cast<double>(after.cache_hits - before.cache_hits);
    const double misses = static_cast<double>(after.cache_misses - before.cache_misses);
    report.layer("service.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
    const double session_requests = static_cast<double>(latencies(clients, 3).size());
    report.layer("service.session_reuse_ratio",
                 session_requests > 0
                     ? static_cast<double>(after.sessions_reused - before.sessions_reused) /
                           session_requests
                     : 0.0,
                 "ratio");
    report.layer("service.live_sessions", static_cast<double>(svc.live_sessions()), "count");
    report.layer("service.cache_entries", static_cast<double>(svc.cache_size()), "count");
    report.layer("metrics.scrape_s", median(scrapes), "s");

    // Layer time and work inside the service, from the flight recorder's
    // per-request records (phase splits of ExploreStats / ExtractStats).
    std::map<std::string, double> sum;
    double gap_max = 0.0;
    for (const metrics::RequestRecord& r : records) {
      if (r.request_id < first_timed_id) continue;
      sum["ematch.search_s"] += r.search_seconds;
      sum["rewrite.apply_s"] += r.apply_seconds;
      sum["egraph.rebuild_s"] += r.rebuild_seconds;
      sum["cycles.dmap_s"] += r.dmap_seconds;
      sum["cycles.sweep_s"] += r.cycle_sweep_seconds;
      sum["extract.reach_s"] += r.reach_seconds;
      sum["extract.reduce_s"] += r.reduce_seconds;
      sum["extract.lp_build_s"] += r.lp_build_seconds;
      sum["ilp.solve_s"] += r.solve_seconds;
      sum["extract.stitch_s"] += r.stitch_seconds;
      sum["ilp.fallback_cores"] += static_cast<double>(r.fallback_cores);
      sum["egraph.enodes"] += static_cast<double>(r.enodes_total);
      sum["optimizer.iterations"] += r.iterations;
      sum["optimizer.node_limit_stops"] +=
          r.stop_reason == static_cast<int>(StopReason::kNodeLimit) ? 1 : 0;
      gap_max = std::max(gap_max, r.milp_gap);
    }
    sum["ilp.timeouts"] = static_cast<double>(unproven.size());
    for (const auto& [name, value] : sum)
      report.layer(name, value, name.compare(name.size() - 2, 2, "_s") == 0 ? "s" : "count");
    report.layer("ilp.gap_max", gap_max, "ratio");
    report.layer("ilp.warm_start_hits",
                 counter("tensat_service_warm_start_hits_total") - warm_hits_before, "count");
    report.layer("ilp.refactorizations",
                 counter("tensat_service_refactorizations_total") - refactor_before, "count");

    // What the flight records do not hold (B&B work, core sizes, match and
    // rewrite counts, the span-timed calls) comes from replaying the
    // window's first fresh requests through optimize()'s flow with the
    // service's settings, then saving the output as the service does:
    // totals over that replayed sample.
    SpanLog replay_spans(true);
    LayerTotals replay;
    double threads1 = 0.0;
    size_t replayed = 0;
    for (const Client& c : clients)
      for (const Sample& s : c.samples) {
        if (s.kind != Kind::kFresh || replayed == kReplay) continue;
        const Graph g = load_graph_from_string(c.texts[s.text]);
        const GraphRun r = optimize_traced(g, options.tensat, replay_spans);
        (void)traced(replay_spans, "serialize.save",
                     [&] { return save_graph_to_string(r.optimized); });
        replay.add(r);
        threads1 += explore_threads1_seconds(g, options.tensat);
        ++replayed;
      }
    Report replayed_layers;
    replay.report(replayed_layers, 1.0);
    replayed_layers.layer("egraph.seed_s", replay_spans.total("egraph.seed"), "s");
    replayed_layers.layer("optimizer.explore_s", replay_spans.total("optimizer.explore"), "s");
    replayed_layers.layer("extract.engine_s", replay_spans.total("extract.engine"), "s");
    replayed_layers.layer("cost.graph_cost_s", replay_spans.total("cost.graph_cost"), "s");
    replayed_layers.layer("serialize.save_s", replay_spans.total("serialize.save"), "s");
    replayed_layers.layer("pool.threads1_explore_s", threads1, "s");
    std::set<std::string> from_service;
    for (const Metric& m : report.per_layer) from_service.insert(m.name);
    for (const Metric& m : replayed_layers.per_layer)
      if (from_service.count(m.name) == 0) report.per_layer.push_back(m);
    std::printf("replayed %zu fresh requests for the layer counts\n", replayed);

    report.layer("trace.optimize_s", cold_p50, "s");
    report.layer("trace.request_p50_s", p50, "s");
    report.layer("trace.spans", window_spans, "count");
  }

  report.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  report.e2e("setup_s", setup_s, "s");
  return report;
}

}  // namespace perfbench
