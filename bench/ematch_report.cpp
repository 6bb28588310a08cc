// E-matching throughput report (see bench/README.md for the JSON schema):
//
//  1. single-pattern: every canonical pattern of the default rule set against
//     model seed e-graphs, naive recursive matcher vs compiled VM (the same
//     workload as bench/micro_egraph.cpp BM_EMatchAllRules*). Gate: the VM
//     must stay >= 2x the naive matcher.
//  2. (retired: joint plan vs Cartesian-product join; the Cartesian join
//     is now only a test oracle.)
//  3. parallel: the full canonical-pattern sweep on 1 thread vs a small
//     worker pool (ematch::search_all; identical results by construction).
//  4. apply: full exploration runs; the apply pipeline with a stage-1
//     worker pool vs the serial baseline (the same code at
//     apply_threads = 1, the determinism anchor). Compares accumulated
//     ExploreStats::apply_seconds and records the per-phase breakdown.
//     Gate: the pool must not be slower than the serial baseline overall.
//  5. cycles: full exploration runs; incremental cycle analysis
//     (TensatOptions::incremental_cycles, journal/epoch descendants map +
//     scoped sweep) vs the fresh-rebuild baseline, comparing
//     ExploreStats::dmap_seconds + cycle_sweep_seconds. The two modes must
//     agree on applications and filtered nodes (they produce bit-identical
//     e-graphs). Gate: incremental must not be slower than fresh overall.
//  6. extract: ILP extraction on explored e-graphs; the engine (extract/
//     engine: reductions + SCC condensation + per-core solves, the one
//     production extractor) vs the monolithic one-shot ILP (the test
//     oracle). On instances both solve, costs must agree (exit 10); the
//     time ratio is recorded, not gated. At least one instance the
//     monolithic path rejects as too_large (its post-presolve variable count
//     exceeds max_instance_nodes) must be solved by the engine (exit 9) —
//     the scalability claim the subsystem exists for — and explored
//     BERT(2,32,128) must be certified within 1% (exit 13).
//  7. trace: the full canonical-pattern sweep on the explored-BERT e-graph
//     (every ematch::search emits a span) with a trace::Tracer installed vs
//     disabled, min-of-N timing to resist CI noise. Gate: tracing-enabled
//     overhead must stay <= 5%.
//  8. pool: the end-to-end exploration wall-time scaling curve at 1/2/4/8
//     threads (not gated: on a single-core runner the honest curve is
//     flat) and the persistent work-stealing pool's (support/pool.h)
//     lifetime job/invitation/steal totals.
//  9. service: the optimization service (src/service) on a repeated +
//     perturbed request mix (small BERT / NasRNN / SharedMM): cold (every
//     reuse layer off) vs cached steady state (result-cache hits after a
//     warm-up pass), plus a session leg resuming perturbed variants and a
//     cache-only bit-identity check (a hit must return the exact bytes an
//     independent cold recomputation produces). Gates: cached must be
//     >= 5x cold (exit 15); hits must be bit-identical (exit 16).
// 10. (retired: metrics-enabled vs uninstrumented service overhead; the
//     metrics layer is always on, so there is no uninstrumented service.)
//
// The top-level JSON carries provenance: schema_version, git_sha,
// hardware_concurrency, build_type (bench/README.md).
//
// Usage: bench_ematch_report [output.json]   (default: BENCH_ematch.json)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include <thread>

#include "bench_common.h"
#include "ematch/machine.h"
#include "extract/engine/engine.h"
#include "models/models.h"
#include "optimizer/optimizer.h"
#include "rewrite/matcher.h"
#include "rewrite/multi.h"
#include "rewrite/rules.h"
#include "serialize/serialize.h"
#include "service/service.h"
#include "support/buildinfo.h"
#include "support/parallel.h"
#include "support/pool.h"
#include "support/timer.h"
#include "trace/trace.h"

using namespace tensat;

namespace {

struct Throughput {
  double seconds{0.0};
  size_t matches{0};
  [[nodiscard]] double matches_per_sec() const {
    return seconds > 0.0 ? static_cast<double>(matches) / seconds : 0.0;
  }
};

/// Repeats the full-rule-set search until `min_seconds` of work accumulates
/// (at least once), then reports the per-sweep average.
template <typename SearchAll>
Throughput measure(const SearchAll& search_all, double min_seconds = 0.3) {
  size_t reps = 0;
  size_t matches = 0;
  Timer timer;
  do {
    matches = search_all();  // identical every sweep; keep the last count
    ++reps;
  } while (timer.seconds() < min_seconds);
  Throughput t;
  t.seconds = timer.seconds() / static_cast<double>(reps);
  t.matches = matches;
  return t;
}

/// A multi-pattern stress graph: `groups` distinct inputs, each feeding
/// `per_group` matmuls. Every matmul matches every multi-rule source, while
/// only same-input (resp. same-weight) pairs are compatible — the apply-
/// heavy blow-up shape.
Graph make_shared_matmul_blowup(int groups, int per_group) {
  Graph g;
  for (int grp = 0; grp < groups; ++grp) {
    const Id x = g.input("x" + std::to_string(grp), {64, 64});
    for (int i = 0; i < per_group; ++i) {
      const Id w =
          g.weight("w" + std::to_string(grp) + "_" + std::to_string(i), {64, 64});
      g.add_root(g.matmul(x, w));
    }
  }
  return g;
}

/// One workload e-graph for the parallel and trace sections.
struct Workload {
  std::string name;
  EGraph eg;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_ematch.json";
  const std::vector<Rewrite>& rules = default_rules();
  const MultiPlan plan = build_multi_plan(rules);
  using tensat::bench::cost_model;  // the shared bench T4 model (section 6)

  // ---- Section 1: naive vs VM on every canonical pattern -------------------
  struct ModelRow {
    std::string name;
    size_t eclasses;
    size_t enodes;
    Throughput naive;
    Throughput vm;
  };
  std::vector<ModelRow> rows;

  std::vector<ModelInfo> models;
  models.push_back({"BERT(2,32,128)", make_bert(2, 32, 128)});  // micro_egraph workload
  models.push_back({"NasRNN(1,8,64)", make_nasrnn(1, 8, 64)});
  models.push_back({"Inception-v3(2,32,16)", make_inception_v3(2, 32, 16)});

  std::printf("%-24s %10s %12s | %12s %12s | %8s\n", "model", "eclasses",
              "naive m/s", "vm m/s", "matches", "speedup");
  for (const ModelInfo& m : models) {
    EGraph eg = seed_egraph(m.graph);
    ModelRow row;
    row.name = m.name;
    row.eclasses = eg.num_classes();
    row.enodes = eg.num_enodes();
    row.naive = measure([&] {
      size_t total = 0;
      for (const CanonicalPattern& cp : plan.patterns)
        total += search_pattern_naive(eg, cp.pat, cp.root).size();
      return total;
    });
    row.vm = measure([&] {
      size_t total = 0;
      for (const CanonicalPattern& cp : plan.patterns)
        total += ematch::search(eg, cp.program).size();
      return total;
    });
    std::printf("%-24s %10zu %12.0f | %12.0f %12zu | %7.2fx\n", row.name.c_str(),
                row.eclasses, row.naive.matches_per_sec(), row.vm.matches_per_sec(),
                row.vm.matches, row.naive.seconds / row.vm.seconds);
    rows.push_back(std::move(row));
  }

  double naive_seconds = 0.0, vm_seconds = 0.0;
  for (const ModelRow& r : rows) {
    naive_seconds += r.naive.seconds;
    vm_seconds += r.vm.seconds;
  }
  const double speedup = vm_seconds > 0.0 ? naive_seconds / vm_seconds : 0.0;

  // ---- Workloads for the parallel and trace sections ----------------------
  // Seed e-graphs are small; an explored e-graph (merged classes, more
  // e-nodes per class) plus a synthetic shared-operand graph cover the
  // regimes where a sweep has real work.
  std::vector<Workload> workloads;
  workloads.push_back({"BERT(2,32,128) seed", seed_egraph(models[0].graph)});
  workloads.push_back({"SharedMM(8x12) seed", seed_egraph(make_shared_matmul_blowup(8, 12))});
  {
    EGraph eg = seed_egraph(models[0].graph);
    TensatOptions opt;
    opt.k_max = 2;
    opt.k_multi = 1;
    opt.node_limit = 4000;
    run_exploration(eg, rules, opt);
    workloads.push_back({"BERT(2,32,128) explored", std::move(eg)});
  }

  // ---- Section 3: serial vs parallel canonical-pattern sweep ---------------
  // At least 2 so the worker-pool path is really measured, even on one core
  // (where the honest answer is "no speedup"); at most 4 to keep CI stable.
  const size_t pool =
      std::max<size_t>(2, std::min<size_t>(4, resolve_threads(0)));
  std::vector<const ematch::Program*> progs;
  progs.reserve(plan.patterns.size());
  for (const CanonicalPattern& cp : plan.patterns) progs.push_back(&cp.program);

  struct ParallelRow {
    std::string name;
    Throughput serial;
    Throughput parallel;
  };
  std::vector<ParallelRow> par_rows;

  std::printf("\n%-24s %12s | %12s | %8s   (%zu threads)\n", "parallel sweep",
              "1-thread m/s", "N-thread m/s", "speedup", pool);
  for (Workload& w : workloads) {
    const EGraph& eg = w.eg;
    ParallelRow row;
    row.name = w.name;
    row.serial = measure([&] {
      size_t total = 0;
      for (const auto& found : ematch::search_all(eg, progs, 1))
        total += found.size();
      return total;
    });
    row.parallel = measure([&] {
      size_t total = 0;
      for (const auto& found : ematch::search_all(eg, progs, pool))
        total += found.size();
      return total;
    });
    std::printf("%-24s %12.0f | %12.0f | %7.2fx\n", row.name.c_str(),
                row.serial.matches_per_sec(), row.parallel.matches_per_sec(),
                row.serial.seconds / row.parallel.seconds);
    par_rows.push_back(std::move(row));
  }

  // ---- Section 4: serial apply vs pooled apply -----------------------------
  // Full exploration runs from a fresh seed each repetition; only the apply
  // phase (ExploreStats::apply_seconds) is compared — search, rebuild, and
  // extraction are identical work on both sides. The baseline is the SAME
  // code at apply_threads = 1 (the determinism anchor: any thread count
  // produces a bit-identical e-graph, so this is purely a throughput
  // comparison). SharedMM is the apply-heavy blow-up shape; BERT the model
  // workload.
  struct ApplyStats {
    double apply_seconds{0.0};
    double search_seconds{0.0};
    double rebuild_seconds{0.0};
    size_t applications{0};
  };
  struct ApplyRow {
    std::string name;
    ApplyStats serial;  // apply_threads = 1
    ApplyStats pooled;  // apply_threads = apply_pool
  };
  std::vector<ApplyRow> apply_rows;

  const auto measure_apply = [&rules](const Graph& g, size_t threads,
                                      double min_seconds = 0.5) {
    TensatOptions opt;
    opt.k_max = 3;
    opt.k_multi = 1;
    opt.node_limit = 6000;
    opt.apply_threads = threads;
    ApplyStats acc;
    size_t reps = 0;
    Timer timer;
    do {
      EGraph eg = seed_egraph(g);
      const ExploreStats s = run_exploration(eg, rules, opt);
      acc.apply_seconds += s.apply_seconds;
      acc.search_seconds += s.search_seconds;
      acc.rebuild_seconds += s.rebuild_seconds;
      acc.applications = s.applications;  // identical every rep
      ++reps;
    } while (timer.seconds() < min_seconds);
    acc.apply_seconds /= static_cast<double>(reps);
    acc.search_seconds /= static_cast<double>(reps);
    acc.rebuild_seconds /= static_cast<double>(reps);
    return acc;
  };

  struct ApplyWorkload {
    std::string name;
    Graph graph;
  };
  std::vector<ApplyWorkload> apply_workloads;
  apply_workloads.push_back({"BERT(2,32,128)", models[0].graph});
  apply_workloads.push_back({"SharedMM(8x12)", make_shared_matmul_blowup(8, 12)});

  // Honest hardware pool (capped for CI stability): on a single-core machine
  // the pooled configuration IS the serial one, so it is measured once and
  // the comparison degenerates to 1x by construction.
  const size_t apply_pool = std::min<size_t>(4, resolve_threads(0));

  std::printf("\n%-24s %12s %12s | %12s | %8s   (%zu threads)\n",
              "apply phase", "1-thread s", "N-thread s", "applications",
              "speedup", apply_pool);
  for (const ApplyWorkload& w : apply_workloads) {
    ApplyRow row;
    row.name = w.name;
    row.serial = measure_apply(w.graph, /*threads=*/1);
    row.pooled = apply_pool > 1 ? measure_apply(w.graph, apply_pool) : row.serial;
    std::printf("%-24s %12.4f %12.4f | %12zu | %7.2fx\n", row.name.c_str(),
                row.serial.apply_seconds, row.pooled.apply_seconds,
                row.pooled.applications,
                row.serial.apply_seconds / row.pooled.apply_seconds);
    apply_rows.push_back(std::move(row));
  }

  double serial_apply_seconds = 0.0, pooled_apply_seconds = 0.0;
  for (const ApplyRow& r : apply_rows) {
    serial_apply_seconds += r.serial.apply_seconds;
    pooled_apply_seconds += r.pooled.apply_seconds;
  }
  const double apply_speedup =
      pooled_apply_seconds > 0.0 ? serial_apply_seconds / pooled_apply_seconds : 0.0;

  // ---- Section 5: incremental vs fresh cycle analysis ----------------------
  // Full exploration runs from a fresh seed each repetition; only the cycle
  // analysis work (ExploreStats::dmap_seconds + cycle_sweep_seconds) is
  // compared — it is exactly the work the incremental subsystem replaces:
  // descendants-map construction/epoch advances and the post-rebuild sweep.
  // The differential suite (tests/cycles_incremental_test.cpp) proves the
  // two modes produce bit-identical e-graphs; the bench re-checks the cheap
  // observable part (applications + filtered counts) every run.
  struct CycleSide {
    double dmap_seconds{0.0};
    double cycle_sweep_seconds{0.0};
    size_t applications{0};
    size_t filtered{0};
    [[nodiscard]] double total() const { return dmap_seconds + cycle_sweep_seconds; }
  };
  struct CycleRow {
    std::string name;
    CycleSide fresh;
    CycleSide incremental;
  };
  std::vector<CycleRow> cycle_rows;

  const auto measure_cycles = [&rules](const Graph& g, bool incremental,
                                       double min_seconds = 0.5) {
    TensatOptions opt;
    opt.k_max = 3;
    opt.k_multi = 1;
    opt.node_limit = 6000;
    opt.incremental_cycles = incremental;
    CycleSide acc;
    size_t reps = 0;
    Timer timer;
    do {
      EGraph eg = seed_egraph(g);
      const ExploreStats s = run_exploration(eg, rules, opt);
      acc.dmap_seconds += s.dmap_seconds;
      acc.cycle_sweep_seconds += s.cycle_sweep_seconds;
      acc.applications = s.applications;  // identical every rep
      acc.filtered = s.filtered;
      ++reps;
    } while (timer.seconds() < min_seconds);
    acc.dmap_seconds /= static_cast<double>(reps);
    acc.cycle_sweep_seconds /= static_cast<double>(reps);
    return acc;
  };

  std::vector<ApplyWorkload> cycle_workloads;
  cycle_workloads.push_back({"BERT(2,32,128)", models[0].graph});
  cycle_workloads.push_back({"NasRNN(1,8,64)", models[1].graph});
  cycle_workloads.push_back({"SharedMM(8x12)", make_shared_matmul_blowup(8, 12)});

  std::printf("\n%-24s %10s %10s | %10s %10s | %8s\n", "cycle analysis",
              "fresh dmap", "sweep s", "inc dmap", "sweep s", "speedup");
  for (const ApplyWorkload& w : cycle_workloads) {
    CycleRow row;
    row.name = w.name;
    row.fresh = measure_cycles(w.graph, /*incremental=*/false);
    row.incremental = measure_cycles(w.graph, /*incremental=*/true);
    std::printf("%-24s %10.5f %10.5f | %10.5f %10.5f | %7.2fx\n", row.name.c_str(),
                row.fresh.dmap_seconds, row.fresh.cycle_sweep_seconds,
                row.incremental.dmap_seconds, row.incremental.cycle_sweep_seconds,
                row.fresh.total() / row.incremental.total());
    if (row.fresh.applications != row.incremental.applications ||
        row.fresh.filtered != row.incremental.filtered) {
      std::fprintf(stderr,
                   "incremental/fresh cycle-analysis mismatch on %s: "
                   "applications %zu vs %zu, filtered %zu vs %zu\n",
                   row.name.c_str(), row.incremental.applications,
                   row.fresh.applications, row.incremental.filtered,
                   row.fresh.filtered);
      return 7;
    }
    cycle_rows.push_back(std::move(row));
  }

  double fresh_cycle_seconds = 0.0, inc_cycle_seconds = 0.0;
  for (const CycleRow& r : cycle_rows) {
    fresh_cycle_seconds += r.fresh.total();
    inc_cycle_seconds += r.incremental.total();
  }
  const double cycle_speedup =
      inc_cycle_seconds > 0.0 ? fresh_cycle_seconds / inc_cycle_seconds : 0.0;

  // ---- Section 6: extraction engine vs monolithic ILP ----------------------
  // Explored e-graphs (cycle-filtered, so extraction runs without the
  // acyclicity constraints — the paper's main mode). The first rows are
  // sized so the monolithic ILP solves them: there the engine must match the
  // cost; the time ratio is recorded, not gated (it keeps the engine's fixed
  // per-core overhead on small instances visible). One row is sized past
  // the monolithic max_instance_nodes refusal: the engine must solve it
  // anyway (its largest residual core stays small), demonstrating the cap
  // lift.
  struct ExtractSide {
    double seconds{0.0};
    double cost{0.0};
    bool ok{false};
    bool too_large{false};
    bool timed_out{false};
    size_t vars{0};
    size_t cores{0};
    size_t largest_core{0};
    double gap{-1.0};  // certified relative gap; < 0 = not applicable
    size_t fallback_cores{0};
    int warm_start_hits{0};
    int refactorizations{0};
  };
  struct ExtractRow {
    std::string name;
    size_t enodes{0};
    ExtractSide mono;
    ExtractSide engine;
  };
  std::vector<ExtractRow> extract_rows;

  struct ExtractWorkload {
    std::string name;
    Graph graph;
    int k_max;
    size_t node_limit;
    // Certified-gap stop for the engine side. Tight (1e-3) rows are also
    // cost-parity-checked against the monolithic solver; the headline row
    // stops at the gate threshold itself so the proof tail is not spent
    // past the certificate the gate asks for.
    double rel_gap{1e-3};
  };
  std::vector<ExtractWorkload> extract_workloads;
  extract_workloads.push_back({"BERT(1,16,64) explored", make_bert(1, 16, 64), 2, 400});
  extract_workloads.push_back({"NasRNN(1,8,64) explored", models[1].graph, 2, 800});
  extract_workloads.push_back(
      {"SharedMM(6x8) explored", make_shared_matmul_blowup(6, 8), 2, 2500});
  extract_workloads.push_back(
      {"SharedMM(8x12) explored", make_shared_matmul_blowup(8, 12), 3, 6000});
  // The headline instance (paper Table 3's BERT, bench-scaled): two rewrite
  // iterations grow a chained ~512-variable core — the shape that used to
  // defeat the bundled B&B outright (42% gap at the 20 s budget). The
  // engine must land a certified gap <= 1% within the budget (gated below,
  // exit 13).
  extract_workloads.push_back(
      {"BERT(2,32,128) explored", models[0].graph, 2, 4000, 0.01});

  const double extract_time_limit = 20.0;
  std::printf("\n%-24s %8s | %10s %8s | %10s %8s %6s | %8s\n", "extraction",
              "enodes", "mono s", "vars", "engine s", "largest", "cores",
              "speedup");
  for (const ExtractWorkload& w : extract_workloads) {
    TensatOptions opt;
    opt.k_max = w.k_max;
    opt.k_multi = 1;
    opt.node_limit = w.node_limit;
    EGraph eg = seed_egraph(w.graph);
    run_exploration(eg, rules, opt);

    ExtractRow row;
    row.name = w.name;
    row.enodes = eg.num_enodes();

    IlpExtractOptions mono_opt;
    mono_opt.time_limit_s = extract_time_limit;
    Timer t;
    const IlpExtractionResult mono = extract_ilp(eg, cost_model(), mono_opt);
    row.mono.seconds = t.seconds();
    row.mono.cost = mono.cost;
    row.mono.ok = mono.ok;
    row.mono.too_large = mono.too_large;
    row.mono.timed_out = mono.timed_out;
    row.mono.vars = mono.num_vars;

    ExtractEngineOptions engine_opt;
    engine_opt.time_limit_s = extract_time_limit;
    engine_opt.rel_gap = w.rel_gap;
    t.reset();
    const EngineExtractionResult engine = extract_engine(eg, cost_model(), engine_opt);
    row.engine.seconds = t.seconds();
    row.engine.cost = engine.cost;
    row.engine.ok = engine.ok;
    row.engine.timed_out = engine.timed_out;
    row.engine.vars = engine.stats.milp_vars_total;
    row.engine.cores = engine.stats.num_cores;
    row.engine.largest_core = engine.stats.largest_core_vars;
    if (std::isfinite(engine.stats.gap)) row.engine.gap = engine.stats.gap;
    row.engine.fallback_cores = engine.stats.fallback_cores;
    row.engine.warm_start_hits = engine.stats.warm_start_hits;
    row.engine.refactorizations = engine.stats.refactorizations;

    char gap_buf[32];
    if (row.engine.gap >= 0.0)
      std::snprintf(gap_buf, sizeof gap_buf, "gap %.3f%%", 100.0 * row.engine.gap);
    else
      std::snprintf(gap_buf, sizeof gap_buf, "gap -");
    std::printf("%-24s %8zu | %10.4f %8zu | %10.4f %8zu %6zu | %7.2fx  %s%s%s\n",
                row.name.c_str(), row.enodes, row.mono.seconds, row.mono.vars,
                row.engine.seconds, row.engine.largest_core, row.engine.cores,
                row.mono.ok && row.engine.ok && !row.mono.too_large
                    ? row.mono.seconds / row.engine.seconds
                    : 0.0,
                gap_buf, row.mono.too_large ? "  (mono: too large)" : "",
                row.engine.fallback_cores > 0 ? "  (engine: lp fallback)" : "");
    // Cost parity is only meaningful when both sides solved to (gap-)
    // optimality: a timeout incumbent on either side is by-design allowed
    // to be worse.
    if (row.mono.ok && row.engine.ok && !row.mono.timed_out &&
        !row.engine.timed_out &&
        std::abs(row.mono.cost - row.engine.cost) >
            std::max(1e-6, 2e-3 * std::abs(row.mono.cost))) {
      std::fprintf(stderr,
                   "extract engine/monolithic cost mismatch on %s: %.6f vs %.6f\n",
                   row.name.c_str(), row.engine.cost, row.mono.cost);
      return 10;
    }
    extract_rows.push_back(std::move(row));
  }

  double mono_extract_seconds = 0.0, engine_extract_seconds = 0.0;
  size_t extract_shared_rows = 0;
  bool solved_too_large = false;
  for (const ExtractRow& r : extract_rows) {
    if (r.mono.ok && r.engine.ok && !r.mono.timed_out && !r.engine.timed_out) {
      mono_extract_seconds += r.mono.seconds;
      engine_extract_seconds += r.engine.seconds;
      ++extract_shared_rows;
    }
    if (r.mono.too_large && r.engine.ok && !r.engine.timed_out)
      solved_too_large = true;
  }
  // With no mutually solved row (e.g. the monolithic side times out on every
  // shared instance on a loaded runner) there is nothing to compare: the
  // ratio reads 1.0 rather than an engine loss.
  const double extract_speedup =
      extract_shared_rows == 0 ? 1.0
      : engine_extract_seconds > 0.0
          ? mono_extract_seconds / engine_extract_seconds
          : 0.0;
  // Headline gap gate (exit 13): the engine must land BERT(2,32,128)
  // explored with a certified relative gap <= 1% inside the shared budget.
  bool bert_gap_ok = false;
  double bert_gap = -1.0;
  for (const ExtractRow& r : extract_rows) {
    if (r.name.rfind("BERT(2,32,128)", 0) != 0) continue;
    bert_gap = r.engine.gap;
    bert_gap_ok = r.engine.ok && r.engine.gap >= 0.0 && r.engine.gap <= 0.01;
  }

  // ---- Section 7: tracing overhead, enabled vs disabled --------------------
  // Workload: the explored-BERT canonical-pattern sweep (the trace-densest
  // hot path — one ematch/search span per pattern per sweep, so the span
  // record cost is maximally represented relative to useful work). Min-of-N
  // rep timing, same sweep count per rep on both sides: the minimum is the
  // least-interrupted run, the measurement most resistant to CI noise.
  double trace_disabled_s = 0.0, trace_enabled_s = 0.0;
  size_t trace_sweeps_per_rep = 0, trace_events = 0;
  {
    const EGraph& eg = workloads.back().eg;  // "BERT(2,32,128) explored"
    const auto sweep = [&] {
      size_t total = 0;
      for (const auto& found : ematch::search_all(eg, progs, 1))
        total += found.size();
      return total;
    };
    // Warm up before calibrating: the first sweep here runs on caches cold
    // from the extraction section and can read >10x the steady-state sweep,
    // and calibrating the rep size on it shrinks reps to a few ms — fragile
    // against timer granularity and vCPU steal. Calibrate on the
    // steady-state rate so one rep is ~50ms of work.
    sweep();
    Timer cal;
    for (int i = 0; i < 3; ++i) sweep();
    trace_sweeps_per_rep = std::max<size_t>(
        1, static_cast<size_t>(0.05 / std::max(cal.seconds() / 3.0, 1e-9)));
    constexpr size_t kReps = 7;
    const auto timed_rep = [&] {
      Timer t;
      for (size_t s = 0; s < trace_sweeps_per_rep; ++s) sweep();
      return t.seconds() / static_cast<double>(trace_sweeps_per_rep);
    };
    // Interleave disabled/enabled reps (instead of one full block each) so
    // slow machine-load drift cancels rather than landing entirely on
    // whichever side runs second; min-of-reps still filters bursts.
    trace::Tracer tracer;
    trace_disabled_s = std::numeric_limits<double>::infinity();
    trace_enabled_s = std::numeric_limits<double>::infinity();
    for (size_t rep = 0; rep < kReps; ++rep) {
      trace_disabled_s = std::min(trace_disabled_s, timed_rep());
      tracer.install();
      trace_enabled_s = std::min(trace_enabled_s, timed_rep());
      tracer.uninstall();
    }
    trace_events = tracer.summary().events;
  }
  const double trace_overhead =
      trace_disabled_s > 0.0 ? trace_enabled_s / trace_disabled_s : 1.0;
  std::printf("\n%-24s %14s | %14s | %8s\n", "tracing overhead",
              "disabled s/swp", "enabled s/swp", "ratio");
  std::printf("%-24s %14.6f | %14.6f | %7.3fx  (%zu events)\n",
              "BERT(2,32,128) explored", trace_disabled_s, trace_enabled_s,
              trace_overhead, trace_events);

  // ---- Section 8: end-to-end thread scaling + pool totals ------------------
  // Recorded, not gated — on a single-core runner the honest curve is flat:
  // one full exploration per thread count with both knobs set, identical
  // e-graphs by the determinism contract, so applications double-checks
  // that only wall time moved.
  struct ScalePoint {
    size_t threads;
    double seconds;
    size_t applications;
  };
  std::vector<ScalePoint> scaling;
  for (const size_t threads : {1u, 2u, 4u, 8u}) {
    TensatOptions opt;
    opt.k_max = 3;
    opt.k_multi = 1;
    opt.node_limit = 6000;
    opt.search_threads = threads;
    opt.apply_threads = threads;
    double best = std::numeric_limits<double>::infinity();
    size_t applications = 0;
    for (int rep = 0; rep < 3; ++rep) {
      EGraph eg = seed_egraph(models[0].graph);
      Timer t;
      const ExploreStats st = run_exploration(eg, rules, opt);
      best = std::min(best, t.seconds());
      applications = st.applications;
    }
    scaling.push_back(ScalePoint{threads, best, applications});
  }
  std::printf("\n%-24s", "e2e scaling (threads:s)");
  for (const ScalePoint& p : scaling)
    std::printf("  %zu:%.3f", p.threads, p.seconds);
  const WorkStealingPool::Stats pool_stats = WorkStealingPool::global().stats();
  std::printf("  (pool: %zu jobs, %zu invitations, %zu steals)\n",
              static_cast<size_t>(pool_stats.jobs),
              static_cast<size_t>(pool_stats.invitations),
              static_cast<size_t>(pool_stats.steals));

  // ---- Section 9: optimization service — cached vs cold steady state -------
  // A repeated + perturbed request mix (small BERT / NasRNN / SharedMM)
  // through the service front end (src/service/). cold = every feature off,
  // one full pipeline run per request — the per-request price without reuse.
  // cached = the full service at steady state: after one warm-up pass the
  // repeated mix is all result-cache hits. Gate (exit 15): cached steady-
  // state throughput must be >= 5x cold. Separately, a session leg submits
  // perturbed variants under one session key (reported, not gated: those
  // are real explorations), and a cache-only regime verifies hits return
  // bytes identical to an independent cold recomputation (exit 16).
  service::ServiceOptions service_opt;
  service_opt.tensat.k_max = 3;
  service_opt.tensat.k_multi = 1;
  service_opt.tensat.node_limit = 500;
  service_opt.tensat.ilp.time_limit_s = 5.0;
  service_opt.tensat.ilp.rel_gap = 0.0;  // exact: hit-vs-recompute identity

  struct ServiceRequest {
    const char* name;
    std::string text;
  };
  std::vector<ServiceRequest> service_mix;
  service_mix.push_back({"BERT", save_graph_to_string(make_bert(1, 8, 16))});
  service_mix.push_back({"NasRNN", save_graph_to_string(make_nasrnn(1, 4, 32))});
  service_mix.push_back(
      {"SharedMM", save_graph_to_string(make_shared_matmul_blowup(2, 4))});

  // (a) Cold baseline: features off, one pass over the mix.
  double service_cold_s = 0.0;
  {
    service::ServiceOptions off = service_opt;
    off.enable_cache = false;
    off.enable_sessions = false;
    off.enable_warm_starts = false;
    service::OptimizationService cold_svc(rules, cost_model(), off);
    Timer t;
    for (const ServiceRequest& req : service_mix) {
      const service::ServiceResponse r = cold_svc.submit(req.text);
      if (!r.ok) {
        std::fprintf(stderr, "service cold %s failed: %s\n", req.name,
                     r.error.c_str());
        return 1;
      }
    }
    service_cold_s = t.seconds();
  }
  const double service_cold_rps =
      static_cast<double>(service_mix.size()) / service_cold_s;

  // (b) Full service: warm-up pass + session leg, then the timed steady
  // state (every request a cache hit). Service totals collected here.
  double service_cached_s = 0.0;
  constexpr size_t kServicePasses = 50;
  size_t service_sessions_reused = 0;
  double service_session_avg_s = 0.0;
  service::ServiceStats svc_totals;
  {
    service::OptimizationService svc(rules, cost_model(), service_opt);
    for (const ServiceRequest& req : service_mix) {
      if (!svc.submit(req.text).ok) return 1;  // warm-up: populates the cache
    }
    // Session leg: perturbed BERT variants under one key — one fresh run,
    // then resumes against the persisted e-graph.
    constexpr int kSessionRounds = 3;
    {
      Timer t;
      for (int round = 0; round < kSessionRounds; ++round) {
        Graph variant = make_bert(1, 8, 16);
        variant.add_root(
            variant.relu(variant.input("p" + std::to_string(round), {16, 16})));
        const service::ServiceResponse r =
            svc.submit(save_graph_to_string(variant), "bench-session");
        if (!r.ok) return 1;
        if (r.session_reused) ++service_sessions_reused;
      }
      service_session_avg_s = t.seconds() / kSessionRounds;
    }
    {
      Timer t;
      for (size_t pass = 0; pass < kServicePasses; ++pass)
        for (const ServiceRequest& req : service_mix)
          if (!svc.submit(req.text).ok) return 1;
      service_cached_s = t.seconds();
    }
    svc_totals = svc.stats();
  }
  const double service_cached_rps =
      static_cast<double>(kServicePasses * service_mix.size()) / service_cached_s;
  const double service_speedup =
      service_cold_rps > 0.0 ? service_cached_rps / service_cold_rps : 0.0;

  // (c) Bit-identity: in the cache-only regime a hit must return exactly
  // the bytes an independent cold service computes for the same graph.
  bool service_bit_identical = true;
  {
    service::ServiceOptions cache_only = service_opt;
    cache_only.enable_sessions = false;
    cache_only.enable_warm_starts = false;
    service::OptimizationService first(rules, cost_model(), cache_only);
    service::OptimizationService fresh(rules, cost_model(), cache_only);
    for (const ServiceRequest& req : service_mix) {
      const service::ServiceResponse cold = first.submit(req.text);
      const service::ServiceResponse hit = first.submit(req.text);
      const service::ServiceResponse recomputed = fresh.submit(req.text);
      if (!cold.ok || !hit.ok || !recomputed.ok || !hit.cache_hit ||
          hit.optimized_text != cold.optimized_text ||
          hit.optimized_text != recomputed.optimized_text) {
        std::fprintf(stderr, "service bit-identity MISMATCH on %s\n", req.name);
        service_bit_identical = false;
      }
    }
  }

  std::printf("\n%-24s %12s | %12s | %8s   (%zu-request mix, %zu passes)\n",
              "service", "cold req/s", "cached req/s", "speedup",
              service_mix.size(), kServicePasses);
  std::printf("%-24s %12.2f | %12.2f | %7.1fx   session avg %.3fs, reused %zu; "
              "hits %zu, misses %zu; bit-identical: %s\n",
              "repeat mix", service_cold_rps, service_cached_rps, service_speedup,
              service_session_avg_s, service_sessions_reused,
              svc_totals.cache_hits, svc_totals.cache_misses,
              service_bit_identical ? "yes" : "NO");

  // ---- JSON report ---------------------------------------------------------
  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  // Provenance: enough to tell which commit, build flavor, and machine class
  // produced the numbers when two BENCH_ematch.json artifacts disagree.
  std::fprintf(f, "  \"schema_version\": 9,\n");
  std::fprintf(f, "  \"git_sha\": \"%s\",\n", build_git_sha());
  std::fprintf(f, "  \"build_type\": \"%s\",\n", build_type());
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"workload\": \"all canonical patterns of default_rules() vs "
                  "model seed e-graphs (bench/ematch_report.cpp; same search as "
                  "bench/micro_egraph.cpp BM_EMatchAllRules*)\",\n");
  std::fprintf(f, "  \"models\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const ModelRow& r = rows[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"eclasses\": %zu, \"enodes\": %zu,\n"
                 "     \"naive\": {\"seconds_per_sweep\": %.6f, \"matches\": %zu, "
                 "\"matches_per_sec\": %.0f},\n"
                 "     \"vm\": {\"seconds_per_sweep\": %.6f, \"matches\": %zu, "
                 "\"matches_per_sec\": %.0f},\n"
                 "     \"speedup\": %.2f}%s\n",
                 r.name.c_str(), r.eclasses, r.enodes, r.naive.seconds,
                 r.naive.matches, r.naive.matches_per_sec(), r.vm.seconds, r.vm.matches,
                 r.vm.matches_per_sec(), r.naive.seconds / r.vm.seconds,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"overall_speedup_vm_over_naive\": %.2f,\n", speedup);
  std::fprintf(f, "  \"parallel\": {\n");
  std::fprintf(f, "    \"workload\": \"full canonical-pattern sweep via "
                  "ematch::search_all, 1 thread vs pool (identical results by "
                  "construction)\",\n");
  std::fprintf(f, "    \"threads\": %zu,\n", pool);
  std::fprintf(f, "    \"rows\": [\n");
  for (size_t i = 0; i < par_rows.size(); ++i) {
    const ParallelRow& r = par_rows[i];
    std::fprintf(f,
                 "      {\"name\": \"%s\", \"serial\": {\"seconds_per_sweep\": %.6f}, "
                 "\"parallel\": {\"seconds_per_sweep\": %.6f}, \"speedup\": %.2f}%s\n",
                 r.name.c_str(), r.serial.seconds, r.parallel.seconds,
                 r.serial.seconds / r.parallel.seconds,
                 i + 1 < par_rows.size() ? "," : "");
  }
  std::fprintf(f, "    ]\n");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"apply\": {\n");
  std::fprintf(f, "    \"workload\": \"full exploration runs (k_max=3, k_multi=1, "
                  "node_limit=6000): plan/commit apply pipeline, "
                  "apply_threads=1 (serial baseline, the determinism anchor) vs a "
                  "stage-1 worker pool; seconds are ExploreStats per-phase "
                  "timings\",\n");
  std::fprintf(f, "    \"threads\": %zu,\n", apply_pool);
  std::fprintf(f, "    \"rows\": [\n");
  for (size_t i = 0; i < apply_rows.size(); ++i) {
    const ApplyRow& r = apply_rows[i];
    std::fprintf(f,
                 "      {\"name\": \"%s\", \"applications\": %zu,\n"
                 "       \"staged_serial\": {\"apply_seconds\": %.6f, "
                 "\"search_seconds\": %.6f, \"rebuild_seconds\": %.6f},\n"
                 "       \"staged_pool\": {\"apply_seconds\": %.6f, "
                 "\"search_seconds\": %.6f, \"rebuild_seconds\": %.6f},\n"
                 "       \"speedup\": %.2f}%s\n",
                 r.name.c_str(), r.pooled.applications, r.serial.apply_seconds,
                 r.serial.search_seconds, r.serial.rebuild_seconds,
                 r.pooled.apply_seconds, r.pooled.search_seconds,
                 r.pooled.rebuild_seconds,
                 r.serial.apply_seconds / r.pooled.apply_seconds,
                 i + 1 < apply_rows.size() ? "," : "");
  }
  std::fprintf(f, "    ],\n");
  std::fprintf(f, "    \"overall_speedup_pool_over_serial\": %.2f\n", apply_speedup);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"cycles\": {\n");
  std::fprintf(f, "    \"workload\": \"full exploration runs (k_max=3, k_multi=1, "
                  "node_limit=6000): incremental cycle analysis (journal/epoch "
                  "descendants map + scoped sweep, TensatOptions::incremental_cycles) "
                  "vs the per-iteration fresh rebuild; seconds are "
                  "ExploreStats::dmap_seconds / cycle_sweep_seconds\",\n");
  std::fprintf(f, "    \"rows\": [\n");
  for (size_t i = 0; i < cycle_rows.size(); ++i) {
    const CycleRow& r = cycle_rows[i];
    std::fprintf(f,
                 "      {\"name\": \"%s\", \"applications\": %zu, "
                 "\"filtered\": %zu,\n"
                 "       \"fresh\": {\"dmap_seconds\": %.6f, "
                 "\"cycle_sweep_seconds\": %.6f},\n"
                 "       \"incremental\": {\"dmap_seconds\": %.6f, "
                 "\"cycle_sweep_seconds\": %.6f},\n"
                 "       \"speedup\": %.2f}%s\n",
                 r.name.c_str(), r.incremental.applications, r.incremental.filtered,
                 r.fresh.dmap_seconds, r.fresh.cycle_sweep_seconds,
                 r.incremental.dmap_seconds, r.incremental.cycle_sweep_seconds,
                 r.fresh.total() / r.incremental.total(),
                 i + 1 < cycle_rows.size() ? "," : "");
  }
  std::fprintf(f, "    ],\n");
  std::fprintf(f, "    \"overall_speedup_incremental_over_fresh\": %.2f\n",
               cycle_speedup);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"extract\": {\n");
  std::fprintf(f, "    \"workload\": \"ILP extraction of explored (cycle-filtered) "
                  "e-graphs: the engine (extract/engine: reductions + SCC "
                  "condensation + tree-like DP collapse + per-core solves) vs "
                  "the monolithic one-shot ILP oracle; SharedMM(8x12) exceeds "
                  "the monolithic max_instance_nodes cap on purpose\",\n");
  std::fprintf(f, "    \"time_limit_s\": %.1f,\n", extract_time_limit);
  std::fprintf(f, "    \"rows\": [\n");
  for (size_t i = 0; i < extract_rows.size(); ++i) {
    const ExtractRow& r = extract_rows[i];
    // Rows the monolithic side refuses (too_large) or fails have no honest
    // time ratio: speedup is null, and they are excluded from
    // overall_speedup_engine_over_monolithic above.
    char speedup_buf[32];
    if (r.mono.ok && r.engine.ok && !r.mono.too_large)
      std::snprintf(speedup_buf, sizeof speedup_buf, "%.2f",
                    r.mono.seconds / r.engine.seconds);
    else
      std::snprintf(speedup_buf, sizeof speedup_buf, "null");
    char gap_buf[32];
    if (r.engine.gap >= 0.0)
      std::snprintf(gap_buf, sizeof gap_buf, "%.6f", r.engine.gap);
    else
      std::snprintf(gap_buf, sizeof gap_buf, "null");
    std::fprintf(f,
                 "      {\"name\": \"%s\", \"enodes\": %zu,\n"
                 "       \"monolithic\": {\"seconds\": %.6f, \"vars\": %zu, "
                 "\"ok\": %s, \"too_large\": %s, \"cost\": %.4f},\n"
                 "       \"engine\": {\"seconds\": %.6f, \"vars_total\": %zu, "
                 "\"cores\": %zu, \"largest_core_vars\": %zu, \"ok\": %s, "
                 "\"cost\": %.4f,\n"
                 "        \"gap\": %s, \"fallback_cores\": %zu, "
                 "\"warm_start_hits\": %d, \"refactorizations\": %d},\n"
                 "       \"speedup\": %s}%s\n",
                 r.name.c_str(), r.enodes, r.mono.seconds, r.mono.vars,
                 r.mono.ok ? "true" : "false", r.mono.too_large ? "true" : "false",
                 r.mono.cost, r.engine.seconds, r.engine.vars, r.engine.cores,
                 r.engine.largest_core, r.engine.ok ? "true" : "false",
                 r.engine.cost, gap_buf, r.engine.fallback_cores,
                 r.engine.warm_start_hits, r.engine.refactorizations,
                 speedup_buf, i + 1 < extract_rows.size() ? "," : "");
  }
  std::fprintf(f, "    ],\n");
  std::fprintf(f, "    \"overall_speedup_engine_over_monolithic\": %.2f,\n",
               extract_speedup);
  std::fprintf(f, "    \"engine_solved_monolithic_too_large\": %s,\n",
               solved_too_large ? "true" : "false");
  std::fprintf(f, "    \"bert_gap\": %s,\n",
               bert_gap >= 0.0
                   ? (std::to_string(bert_gap).c_str())
                   : "null");
  std::fprintf(f, "    \"bert_gap_within_1pct\": %s\n",
               bert_gap_ok ? "true" : "false");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"trace\": {\n");
  std::fprintf(f, "    \"workload\": \"full canonical-pattern sweep on the "
                  "explored-BERT e-graph, trace::Tracer installed vs disabled "
                  "(src/trace; every ematch::search records one span); min of 7 "
                  "reps, %zu sweeps per rep\",\n",
               trace_sweeps_per_rep);
  std::fprintf(f, "    \"disabled\": {\"seconds_per_sweep\": %.6f},\n",
               trace_disabled_s);
  std::fprintf(f, "    \"enabled\": {\"seconds_per_sweep\": %.6f, "
                  "\"events_recorded\": %zu},\n",
               trace_enabled_s, trace_events);
  std::fprintf(f, "    \"overhead_ratio_enabled_over_disabled\": %.3f\n",
               trace_overhead);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"pool\": {\n");
  std::fprintf(f, "    \"scaling\": [\n");
  for (size_t i = 0; i < scaling.size(); ++i) {
    const ScalePoint& p = scaling[i];
    std::fprintf(f,
                 "      {\"threads\": %zu, \"explore_wall_seconds\": %.6f, "
                 "\"applications\": %zu}%s\n",
                 p.threads, p.seconds, p.applications,
                 i + 1 < scaling.size() ? "," : "");
  }
  std::fprintf(f, "    ],\n");
  std::fprintf(f, "    \"scaling_workload\": \"full BERT(2,32,128) exploration "
                  "(k_max=3, k_multi=1, node_limit=6000), search_threads = "
                  "apply_threads = N, min wall time of 3 runs; e-graphs are "
                  "bit-identical across the curve by the determinism "
                  "contract\",\n");
  std::fprintf(f, "    \"worker_pool_totals\": {\"jobs\": %zu, "
                  "\"invitations\": %zu, \"steals\": %zu}\n",
               static_cast<size_t>(pool_stats.jobs),
               static_cast<size_t>(pool_stats.invitations),
               static_cast<size_t>(pool_stats.steals));
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"service\": {\n");
  std::fprintf(f, "    \"workload\": \"repeated + perturbed request mix (small "
                  "BERT / NasRNN / SharedMM) through the optimization service "
                  "(src/service): cold = all reuse layers off, one pipeline run "
                  "per request; cached = full service steady state after a "
                  "warm-up pass (%zu passes over the mix, all result-cache "
                  "hits); session = perturbed BERT variants resumed under one "
                  "session key (real explorations, reported not gated)\",\n",
               kServicePasses);
  std::fprintf(f, "    \"cold\": {\"requests\": %zu, \"seconds\": %.6f, "
                  "\"requests_per_sec\": %.2f},\n",
               service_mix.size(), service_cold_s, service_cold_rps);
  std::fprintf(f, "    \"cached\": {\"requests\": %zu, \"seconds\": %.6f, "
                  "\"requests_per_sec\": %.2f},\n",
               kServicePasses * service_mix.size(), service_cached_s,
               service_cached_rps);
  std::fprintf(f, "    \"speedup_cached_over_cold\": %.2f,\n", service_speedup);
  std::fprintf(f, "    \"session\": {\"requests\": 3, \"reused\": %zu, "
                  "\"avg_seconds\": %.6f},\n",
               service_sessions_reused, service_session_avg_s);
  std::fprintf(f, "    \"bit_identical_hits\": %s,\n",
               service_bit_identical ? "true" : "false");
  std::fprintf(f, "    \"totals\": {\"hits\": %zu, \"misses\": %zu, "
                  "\"sessions_reused\": %zu}\n",
               svc_totals.cache_hits, svc_totals.cache_misses,
               svc_totals.sessions_reused);
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);

  std::printf("\noverall speedup (vm over naive): %.2fx, (pooled over serial "
              "apply): %.2fx, (incremental over fresh cycles): %.2fx, (engine "
              "over monolithic extract, not gated): %.2fx, (engine solved a "
              "too-large instance): %s, (BERT gap): %s, (tracing overhead): "
              "%.3fx, (cached service over cold): %.1fx, (service hits "
              "bit-identical): %s -> %s\n",
              speedup, apply_speedup, cycle_speedup, extract_speedup,
              solved_too_large ? "yes" : "NO",
              bert_gap_ok ? "<= 1%" : "MISSED", trace_overhead, service_speedup,
              service_bit_identical ? "yes" : "NO", out_path.c_str());
  if (speedup < 2.0) return 2;        // gate: VM must be >= 2x naive
  if (apply_speedup < 1.0) return 5;  // gate: pooled apply must not lose overall
  if (cycle_speedup < 1.0) return 6;  // gate: incremental cycles must not lose
  if (!solved_too_large) return 9;    // gate: engine must lift the size cap
  if (trace_overhead > 1.05) return 11;  // gate: tracing-enabled overhead <= 5%
  if (!bert_gap_ok) return 13;  // gate: BERT extraction certified within 1%
  if (service_speedup < 5.0) return 15;  // gate: cached service >= 5x cold
  if (!service_bit_identical) return 16;  // gate: hits == cold recomputation
  return 0;
}
