// Tests for the tracing/telemetry layer (src/trace):
//  * unit behavior — spans, counters, instants, incr totals, install guards,
//    and the disabled path being a no-op;
//  * cross-thread merge — events recorded from a worker pool land in per-
//    thread lanes and merge into one deterministic summary;
//  * Chrome trace-event JSON — structurally valid (checked with a tiny
//    recursive-descent JSON parser) and carrying the expected phases;
//  * determinism — the trace digest, the per-rule telemetry, the growth
//    timeline, AND the e-graph fingerprint are bit-identical across
//    search/apply thread counts (1/2/8) on the deterministic paths, and
//    across extraction core_threads counts — the house determinism contract
//    extended to observability.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <ratio>
#include <sstream>
#include <thread>
#include <type_traits>
#include <utility>

#include "egraph_fingerprint.h"
#include "extract/engine/engine.h"
#include "models/models.h"
#include "optimizer/optimizer.h"
#include "rewrite/rules.h"
#include "support/parallel.h"
#include "support/timer.h"
#include "trace/trace.h"

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
      } while (ok && eat(','));
      if (!eat('}')) ok = false;
    } else if (c == '[') {
      ++i;
      if (eat(']')) return;
      do value();
      while (ok && eat(','));
      if (!eat(']')) ok = false;
    } else if (c == '"') {
      string();
    } else if (c == 't') {
      ok = s.compare(i, 4, "true") == 0;
      i += 4;
    } else if (c == 'f') {
      ok = s.compare(i, 5, "false") == 0;
      i += 5;
    } else if (c == 'n') {
      ok = s.compare(i, 4, "null") == 0;
      i += 4;
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
      if (s[i] == '\\') ++i;
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
    while (i < s.size() && (std::isdigit(static_cast<unsigned char>(s[i])) ||
                            s[i] == '.' || s[i] == 'e' || s[i] == 'E' ||
                            s[i] == '-' || s[i] == '+'))
      ++i;
    if (i == start) ok = false;
  }
};

bool json_valid(const std::string& s) {
  JsonCursor c{s};
  c.value();
  c.ws();
  return c.ok && c.i == s.size();
}

// ---- Unit tests -----------------------------------------------------------

TEST(Tracer, DisabledHelpersAreNoOps) {
  ASSERT_EQ(trace::Tracer::current(), nullptr);
  // None of these may crash or record anywhere.
  trace::counter("x", 1);
  trace::instant("y");
  trace::incr("z", 5);
  { trace::ScopedSpan span("dead"); }
  EXPECT_EQ(trace::Tracer::current(), nullptr);
}

TEST(Tracer, SpansCountersInstantsTotals) {
  trace::Tracer tracer;
  tracer.install();
  EXPECT_EQ(trace::Tracer::current(), &tracer);
  {
    trace::ScopedSpan outer("phase");
    trace::ScopedSpan inner("phase/sub", 7);
    trace::counter("size", 10);
    trace::counter("size", 20);
    trace::instant("mark");
    trace::incr("work", 3);
    trace::incr("work", 4);
  }
  tracer.uninstall();
  EXPECT_EQ(trace::Tracer::current(), nullptr);

  const trace::Summary s = tracer.summary();
  ASSERT_EQ(s.spans.size(), 3u);  // phase, phase/sub, mark (instant)
  ASSERT_EQ(s.counters.size(), 1u);
  EXPECT_EQ(s.counters[0].name, "size");
  EXPECT_EQ(s.counters[0].values, (std::vector<int64_t>{10, 20}));
  ASSERT_EQ(s.totals.size(), 1u);
  EXPECT_EQ(s.totals[0].name, "work");
  EXPECT_EQ(s.totals[0].value, 7);
  for (const auto& sp : s.spans) {
    if (sp.name == "phase") {
      EXPECT_EQ(sp.count, 1u);
      EXPECT_GE(sp.total_us, 0.0);
    }
  }
}

TEST(Tracer, InstallIsExclusiveAndRestorable) {
  trace::Tracer a;
  a.install();
  trace::Tracer b;  // installing b while a is installed would TENSAT_CHECK
  a.uninstall();
  b.install();
  b.uninstall();
}

TEST(Tracer, CrossThreadMergeIsDeterministic) {
  // Record the same per-index work from pools of different sizes: summary
  // digests must match exactly (span counts, counter sequences from the
  // serial context, incr totals — no timestamps in the digest).
  const auto run = [](size_t threads) {
    trace::Tracer tracer;
    tracer.install();
    parallel_for(64, threads, [&](size_t i) {
      trace::ScopedSpan span("work", static_cast<int64_t>(i));
      trace::incr("items", 1);
      trace::incr("weight", static_cast<int64_t>(i));
    });
    trace::counter("after", 42);  // serial context
    tracer.uninstall();
    return tracer.summary().deterministic_digest();
  };
  const std::string d1 = run(1);
  EXPECT_EQ(d1, run(2));
  EXPECT_EQ(d1, run(8));
  EXPECT_NE(d1.find("span work x64"), std::string::npos);
  EXPECT_NE(d1.find("total items=64"), std::string::npos);
  EXPECT_NE(d1.find("total weight=2016"), std::string::npos);
}

TEST(Tracer, StatsSurfaceInSummaryButNotInDigest) {
  // kStat events carry scheduling-dependent telemetry — pool queue depths —
  // whose values legitimately differ run to run and thread count to thread
  // count. They must surface in the summary and the Chrome export, and must
  // be invisible to the deterministic digest (which the determinism suites
  // compare across thread counts).
  const auto run = [](int64_t depth) {
    trace::Tracer tracer;
    tracer.install();
    trace::counter("size", 10);
    trace::stat("pool/queue_depth", depth);
    trace::stat("pool/queue_depth", depth + 1);
    tracer.uninstall();
    return tracer.summary();
  };
  const trace::Summary a = run(3);
  const trace::Summary b = run(900);  // wildly different stat values
  ASSERT_EQ(a.stats.size(), 1u);
  EXPECT_EQ(a.stats[0].name, "pool/queue_depth");
  EXPECT_EQ(a.stats[0].values, (std::vector<int64_t>{3, 4}));
  EXPECT_EQ(a.deterministic_digest(), b.deterministic_digest());
  EXPECT_EQ(a.deterministic_digest().find("pool/queue_depth"),
            std::string::npos);

  // The Chrome export does show them (as counter tracks).
  trace::Tracer tracer;
  tracer.install();
  trace::stat("pool/queue_depth", 7);
  tracer.uninstall();
  std::ostringstream out;
  tracer.write_chrome_trace(out);
  EXPECT_TRUE(json_valid(out.str()));
  EXPECT_NE(out.str().find("pool/queue_depth"), std::string::npos);
}

TEST(Tracer, ChromeTraceJsonIsValid) {
  trace::Tracer tracer;
  tracer.install();
  parallel_for(16, 4, [&](size_t i) {
    trace::ScopedSpan span("escaped \"name\"\n", static_cast<int64_t>(i));
    trace::incr("total", 1);
  });
  trace::counter("gauge", -5);
  trace::instant("tick");
  tracer.uninstall();

  std::ostringstream out;
  tracer.write_chrome_trace(out);
  const std::string json = out.str();
  EXPECT_TRUE(json_valid(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // spans
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);  // counters
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // instants
  EXPECT_NE(json.find("thread_name"), std::string::npos);   // lane metadata
}

TEST(Tracer, ChromeTraceEscapesControlCharacters) {
  // Event names carrying raw control characters (< 0x20) must come out as
  // \u00XX escapes (or the \n / \t shorthands) — a raw control byte inside
  // a JSON string is invalid and chrome://tracing refuses the whole file.
  static const char kName[] = "bad\x01name\x1f mid\ttab\nnl \"q\" b\\s";
  trace::Tracer tracer;
  tracer.install();
  trace::instant(kName);
  trace::incr(kName, 1);  // totals render through the same escaper
  tracer.uninstall();

  std::ostringstream out;
  tracer.write_chrome_trace(out);
  const std::string json = out.str();
  EXPECT_TRUE(json_valid(json)) << json;
  for (const char c : json)
    EXPECT_FALSE(static_cast<unsigned char>(c) < 0x20 && c != '\n')
        << "raw control byte " << static_cast<int>(c) << " in output";
  EXPECT_NE(json.find("\\u0001"), std::string::npos);
  EXPECT_NE(json.find("\\u001f"), std::string::npos);
  EXPECT_NE(json.find("\\t"), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
  EXPECT_NE(json.find("\\\"q\\\""), std::string::npos);
  EXPECT_NE(json.find("b\\\\s"), std::string::npos);
}

// ---- Pipeline determinism across thread counts ----------------------------

struct ExploreRun {
  std::string egraph_fp;
  std::string trace_digest;
  std::vector<RuleTelemetry> rules;
  std::vector<IterationTelemetry> growth;
};

ExploreRun explore_with_threads(size_t threads) {
  trace::Tracer tracer;
  tracer.install();
  EGraph eg = seed_egraph(make_bert(1, 8, 32));
  TensatOptions opt;
  opt.k_max = 4;
  opt.k_multi = 1;
  opt.node_limit = 3000;
  opt.search_threads = threads;
  opt.apply_threads = threads;
  const ExploreStats stats = run_exploration(eg, default_rules(), opt);
  tracer.uninstall();
  ExploreRun run;
  run.egraph_fp = fingerprint(eg);
  run.trace_digest = tracer.summary().deterministic_digest();
  run.rules = stats.rules;
  run.growth = stats.growth;
  return run;
}

/// Everything in RuleTelemetry except seconds (wall time legitimately
/// varies), serialized for whole-vector comparison.
std::string rules_key(const std::vector<RuleTelemetry>& rules) {
  std::ostringstream out;
  for (const RuleTelemetry& r : rules)
    out << r.name << ':' << r.matches << '/' << r.planned << '/' << r.committed
        << '/' << r.nodes_added << '/' << r.bans << '/' << r.unbans << '\n';
  return out.str();
}

std::string growth_key(const std::vector<IterationTelemetry>& growth) {
  std::ostringstream out;
  for (const IterationTelemetry& g : growth)
    out << g.eclasses << '/' << g.enodes << '/' << g.enodes_total << '/'
        << g.filtered << '/' << g.matches << '/' << g.applications << '\n';
  return out.str();
}

TEST(TraceDeterminism, TelemetryIdenticalAcrossThreadCounts) {
  const ExploreRun r1 = explore_with_threads(1);
  for (size_t threads : {size_t{2}, size_t{8}}) {
    const ExploreRun rn = explore_with_threads(threads);
    EXPECT_EQ(r1.egraph_fp, rn.egraph_fp) << threads << " threads";
    EXPECT_EQ(r1.trace_digest, rn.trace_digest) << threads << " threads";
    EXPECT_EQ(rules_key(r1.rules), rules_key(rn.rules)) << threads << " threads";
    EXPECT_EQ(growth_key(r1.growth), growth_key(rn.growth))
        << threads << " threads";
  }
  // The digest must actually contain the instrumented phases.
  EXPECT_NE(r1.trace_digest.find("span explore/search"), std::string::npos);
  EXPECT_NE(r1.trace_digest.find("span explore/commit"), std::string::npos);
  EXPECT_NE(r1.trace_digest.find("counter egraph/hashcons"), std::string::npos);
}

TEST(TraceDeterminism, ExtractionDigestIdenticalAcrossCoreThreads) {
  // Small enough that every core's MILP solves to proven optimality: a solve
  // cut short by the wall-clock limit explores a time-dependent number of
  // B&B nodes, which is real nondeterminism the digest is supposed to expose.
  EGraph eg = seed_egraph(make_nasrnn(1, 2, 8));
  TensatOptions opt;
  opt.k_max = 2;
  opt.k_multi = 1;
  opt.node_limit = 600;
  run_exploration(eg, default_rules(), opt);

  const T4CostModel model;
  const auto extract_digest = [&](size_t core_threads) {
    trace::Tracer tracer;
    tracer.install();
    ExtractEngineOptions ext;
    ext.core_threads = core_threads;
    const EngineExtractionResult res = extract_engine(eg, model, ext);
    tracer.uninstall();
    EXPECT_TRUE(res.ok);
    EXPECT_FALSE(res.timed_out);
    return tracer.summary().deterministic_digest();
  };
  const std::string d1 = extract_digest(1);
  EXPECT_EQ(d1, extract_digest(2));
  EXPECT_EQ(d1, extract_digest(8));
  EXPECT_NE(d1.find("span extract/core"), std::string::npos);
  EXPECT_NE(d1.find("total milp/bb_nodes"), std::string::npos);
}

/// The summed duration of the `name` spans, in seconds.
double span_total(const trace::Summary& summary, const char* name) {
  for (const trace::Summary::SpanAgg& sp : summary.spans)
    if (sp.name == name) return sp.total_us * 1e-6;
  ADD_FAILURE() << "no " << name << " span";
  return 0.0;
}

/// (arg, seconds) of each `name` span in `tracer`'s Chrome trace, in lane
/// order. Spans are differences of nanosecond clock ticks, so the trace's
/// microseconds, printed to three decimals, hold each duration exactly.
std::vector<std::pair<int64_t, double>> traced_spans(const trace::Tracer& tracer,
                                                     const std::string& name) {
  static_assert(std::is_same_v<Timer::Clock::period, std::nano>);
  std::ostringstream out;
  tracer.write_chrome_trace(out);
  const std::string json = out.str();
  const std::string key = "{\"name\":\"" + name + "\",\"ph\":\"X\"";
  std::vector<std::pair<int64_t, double>> spans;
  for (size_t at = json.find(key); at != std::string::npos;
       at = json.find(key, at + 1)) {
    double ts_us = 0.0;
    double dur_us = 0.0;
    int tid = 0;
    long long arg = -1;
    const int fields = std::sscanf(
        json.c_str() + at + key.size(),
        ",\"ts\":%lf,\"dur\":%lf,\"pid\":0,\"tid\":%d,\"args\":{\"arg\":%lld}",
        &ts_us, &dur_us, &tid, &arg);
    EXPECT_GE(fields, 3) << name;
    spans.emplace_back(arg, dur_us * 1e-6);
  }
  return spans;
}

void expect_same(double field, double spans, const char* name) {
  EXPECT_NEAR(field, spans, 1e-9 * std::max(field, spans)) << name;
}

TEST(TraceDeterminism, StatsSecondsEqualSpanTotals) {
  // Each stats-struct duration and its span are one clock reading: a phase
  // field is the summed duration of its spans, and a total is its own
  // span's duration, not a second Timer read beside it. The NasRNN setup of
  // the digest test above forms MILP cores, so every extraction phase runs.
  const Graph input = make_nasrnn(1, 2, 8);
  TensatOptions opt;
  opt.k_max = 2;
  opt.k_multi = 1;
  opt.node_limit = 600;
  const T4CostModel model;
  trace::Tracer tracer;
  tracer.install();
  const TensatResult run = optimize(input, default_rules(), model, opt);
  tracer.uninstall();
  ASSERT_TRUE(run.ilp.ok);
  EXPECT_GT(run.ilp.stats.num_cores, 0u);

  const ExploreStats& explore = run.explore;
  const ExtractStats& ext = run.ilp.stats;
  const trace::Summary summary = tracer.summary();
  const auto span_seconds = [&](const char* name) {
    return span_total(summary, name);
  };
  expect_same(explore.seconds, span_seconds("explore"), "explore");
  expect_same(explore.dmap_seconds, span_seconds("explore/dmap"), "dmap");
  expect_same(explore.search_seconds, span_seconds("explore/search"), "search");
  expect_same(explore.apply_seconds,
              span_seconds("explore/collect") + span_seconds("explore/plan") +
                  span_seconds("explore/commit"),
              "apply");
  expect_same(explore.rebuild_seconds, span_seconds("explore/rebuild"),
              "rebuild");
  expect_same(explore.cycle_sweep_seconds, span_seconds("explore/sweep"),
              "cycle_sweep");
  expect_same(run.extract_seconds, span_seconds("extract"), "extract");
  expect_same(ext.reach_seconds, span_seconds("extract/reach"), "reach");
  expect_same(ext.reduce_seconds, span_seconds("extract/reduce"), "reduce");
  expect_same(ext.solve_seconds, span_seconds("extract/solve"), "solve");
  expect_same(ext.stitch_seconds, span_seconds("extract/stitch"), "stitch");
  expect_same(ext.lp_build_seconds,
              span_seconds("extract/greedy") + span_seconds("extract/build"),
              "lp_build");
  EXPECT_EQ(run.ilp.solve_seconds, ext.solve_seconds);

  const auto iterations = traced_spans(tracer, "explore/iteration");
  ASSERT_EQ(iterations.size(), explore.growth.size());
  for (size_t i = 0; i < iterations.size(); ++i) {
    EXPECT_EQ(iterations[i].first, static_cast<int64_t>(i));
    expect_same(explore.growth[i].seconds, iterations[i].second, "growth");
  }

  // Greedy extraction is timed by the same `extract` span.
  opt.extractor = ExtractorKind::kGreedy;
  trace::Tracer greedy_tracer;
  greedy_tracer.install();
  const TensatResult greedy = optimize(input, default_rules(), model, opt);
  greedy_tracer.uninstall();
  expect_same(greedy.extract_seconds,
              span_total(greedy_tracer.summary(), "extract"), "greedy extract");
}

TEST(TraceDeterminism, UntracedPhasesNestInTheirTotals) {
  // Without a tracer the spans still time every stats field, and the phase
  // spans run inside the span of their total.
  ASSERT_EQ(trace::Tracer::current(), nullptr);
  TensatOptions opt;
  opt.k_max = 2;
  opt.k_multi = 1;
  opt.node_limit = 600;
  const TensatResult run =
      optimize(make_nasrnn(1, 2, 8), default_rules(), T4CostModel{}, opt);
  ASSERT_TRUE(run.ilp.ok);

  const ExploreStats& e = run.explore;
  EXPECT_GT(e.seconds, 0.0);
  EXPECT_GE(e.other_seconds(), 0.0);
  expect_same(e.search_seconds + e.apply_seconds + e.rebuild_seconds +
                  e.dmap_seconds + e.cycle_sweep_seconds + e.other_seconds(),
              e.seconds, "explore phases + other");
  double growth = 0.0;
  for (const IterationTelemetry& g : e.growth) growth += g.seconds;
  EXPECT_GT(growth, 0.0);
  EXPECT_LE(growth, e.seconds);

  const ExtractStats& x = run.ilp.stats;
  EXPECT_GT(x.solve_seconds, 0.0);
  EXPECT_LE(x.reach_seconds + x.reduce_seconds + x.lp_build_seconds +
                x.solve_seconds + x.stitch_seconds,
            run.extract_seconds);
}

TEST(RuleTelemetry, CountsAreInternallyConsistent) {
  EGraph eg = seed_egraph(make_bert(1, 8, 32));
  TensatOptions opt;
  opt.k_max = 3;
  opt.node_limit = 2000;
  const ExploreStats stats = run_exploration(eg, default_rules(), opt);
  ASSERT_EQ(stats.rules.size(), default_rules().size());
  size_t committed_total = 0;
  size_t bans_total = 0;
  for (const RuleTelemetry& r : stats.rules) {
    EXPECT_GE(r.matches, r.planned) << r.name;
    EXPECT_GE(r.planned, r.committed) << r.name;
    committed_total += r.committed;
    bans_total += r.bans;
  }
  EXPECT_EQ(committed_total, stats.applications);
  EXPECT_EQ(bans_total, stats.bans);
  EXPECT_EQ(stats.growth.size(), static_cast<size_t>(stats.iterations));
}

}  // namespace
}  // namespace tensat
