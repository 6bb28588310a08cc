// Micro-benchmarks (google-benchmark) for the e-graph primitives that
// dominate exploration time: add/hash-cons, merge + rebuild, e-matching,
// descendants-map construction, and cycle filtering.
#include <benchmark/benchmark.h>

#include "cycles/cycles.h"
#include "ematch/machine.h"
#include "lang/parse.h"
#include "models/models.h"
#include "optimizer/optimizer.h"
#include "rewrite/matcher.h"
#include "rewrite/multi.h"
#include "rewrite/rules.h"

namespace tensat {
namespace {

Graph chain_graph(int n) {
  Graph g;
  Id x = g.input("x", {32, 32});
  for (int i = 0; i < n; ++i) x = (i % 2 == 0) ? g.relu(x) : g.tanh(x);
  g.add_root(x);
  return g;
}

void BM_EGraphAddGraph(benchmark::State& state) {
  const Graph g = chain_graph(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    EGraph eg;
    benchmark::DoNotOptimize(eg.add_graph(g));
  }
}
BENCHMARK(BM_EGraphAddGraph)->Arg(64)->Arg(512);

void BM_HashconsHit(benchmark::State& state) {
  EGraph eg;
  const Graph g = chain_graph(256);
  auto mapping = eg.add_graph(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eg.add_graph(g));  // all hits
  }
}
BENCHMARK(BM_HashconsHit);

void BM_MergeRebuild(benchmark::State& state) {
  // Merge two parallel chains pairwise and rebuild (congruence cascade).
  for (auto _ : state) {
    state.PauseTiming();
    Graph g;
    const Id a = g.input("a", {16, 16});
    const Id b = g.input("b", {16, 16});
    Id xa = a, xb = b;
    for (int i = 0; i < state.range(0); ++i) {
      xa = g.relu(xa);
      xb = g.relu(xb);
    }
    g.add_root(xa);
    g.add_root(xb);
    EGraph eg;
    auto mapping = eg.add_graph(g);
    state.ResumeTiming();
    eg.merge(mapping.at(a), mapping.at(b));
    eg.rebuild();
    benchmark::DoNotOptimize(eg.num_classes());
  }
}
BENCHMARK(BM_MergeRebuild)->Arg(64)->Arg(256);

void BM_EMatch(benchmark::State& state) {
  EGraph eg = seed_egraph(make_bert(2, 32, 128));
  Graph pat(GraphKind::kPattern);
  const Id root = parse_into(pat, "(matmul ?act ?a ?b)");
  for (auto _ : state) {
    benchmark::DoNotOptimize(search_pattern(eg, pat, root));
  }
}
BENCHMARK(BM_EMatch);

// Every canonical pattern of the default rule set against a BERT seed
// e-graph, programs precompiled as in the exploration loop.
void BM_EMatchAllRulesVM(benchmark::State& state) {
  EGraph eg = seed_egraph(make_bert(2, 32, 128));
  const MultiPlan plan = build_multi_plan(default_rules());
  for (auto _ : state) {
    size_t total = 0;
    for (const CanonicalPattern& cp : plan.patterns)
      total += ematch::search(eg, cp.program).size();
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_EMatchAllRulesVM);

void BM_DescendantsMap(benchmark::State& state) {
  EGraph eg = seed_egraph(make_inception_v3(2, 32, 16));
  for (auto _ : state) {
    DescendantsMap d(eg);
    benchmark::DoNotOptimize(d.reaches(0, 1));
  }
}
BENCHMARK(BM_DescendantsMap);

void BM_ExplorationIteration(benchmark::State& state) {
  const Graph g = make_nasrnn(1, 8, 64);
  TensatOptions opt;
  opt.k_max = 1;
  opt.k_multi = 1;
  opt.node_limit = 4000;
  for (auto _ : state) {
    EGraph eg = seed_egraph(g);
    benchmark::DoNotOptimize(run_exploration(eg, default_rules(), opt));
  }
}
BENCHMARK(BM_ExplorationIteration);

}  // namespace
}  // namespace tensat

BENCHMARK_MAIN();
