// The apply pipeline (optimizer/optimizer.cpp): in waves of 4,096 pending
// applications, stage 1 plans a wave read-only against the e-graph as the
// earlier waves committed it, and stage 2 commits the wave's staged nodes
// and merges serially, one application at a time in plan order; stage 3 is
// the single rebuild. These tests pin its two contracts:
//
//  * determinism: the explored e-graph is bit-identical (same class ids,
//    same e-node sets, same filtered flags, same extracted graph) for any
//    apply_threads value, because stage 2's serial plan-order commit is the
//    only place mutation happens;
//  * parity: the plan/commit split of instantiate (plan_instantiate +
//    NodeBuffer::commit) produces exactly the e-graph instantiate() does,
//    except that a failed instantiation leaves no partial nodes behind.
//
// ExploredEGraphsPinned and MultiWaveExplorationsPinned also pin the
// explored e-graphs themselves to recorded digests, sessions included.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cost/cost.h"
#include "cycles/cycles.h"
#include "extract/extract.h"
#include "lang/parse.h"
#include "models/models.h"
#include "optimizer/optimizer.h"
#include "rewrite/matcher.h"
#include "rewrite/rules.h"
#include "service/fingerprint.h"
#include "tests/egraph_fingerprint.h"
#include "tests/egraph_invariants.h"
#include "trace/trace.h"

namespace tensat {
namespace {

// fingerprint() comes from tests/egraph_fingerprint.h.

std::string explore_and_fingerprint(const Graph& g, const TensatOptions& opt) {
  EGraph eg = seed_egraph(g);
  run_exploration(eg, default_rules(), opt);
  std::string fp = fingerprint(eg);
  // Fold the extracted graph in as well: identical e-graphs must extract
  // identical graphs at identical cost.
  const ExtractionResult ext = extract_greedy(eg, T4CostModel{});
  if (ext.ok) {
    fp += "cost=" + std::to_string(ext.cost) + "\n";
    fp += ext.graph.to_sexpr(ext.graph.roots()[0]);
  }
  return fp;
}

Graph shared_matmuls(int n = 3) {
  Graph g;
  const Id x = g.input("x", {64, 256});
  for (int i = 0; i < n; ++i)
    g.add_root(g.matmul(x, g.weight("w" + std::to_string(i), {256, 256})));
  return g;
}

std::vector<ModelInfo> seed_examples() {
  std::vector<ModelInfo> models;
  models.push_back({"shared_matmuls", shared_matmuls()});
  for (ModelInfo& m : tiny_models()) models.push_back(std::move(m));
  return models;
}

TensatOptions explore_options() {
  TensatOptions opt;
  opt.k_max = 3;
  opt.k_multi = 1;
  opt.node_limit = 3000;
  return opt;
}

// ---- Determinism across apply_threads --------------------------------------

TEST(ApplyPipeline, FingerprintIdenticalForAnyThreadCount) {
  // Vanilla filtering checks each merge against the live e-graph during the
  // serial commit, so it must be just as independent of stage-1 threading.
  for (CycleFilterMode mode :
       {CycleFilterMode::kEfficient, CycleFilterMode::kVanilla}) {
    for (const ModelInfo& m : seed_examples()) {
      TensatOptions opt = explore_options();
      opt.cycle_filter = mode;
      opt.apply_threads = 1;
      const std::string baseline = explore_and_fingerprint(m.graph, opt);
      for (size_t threads : {2u, 8u}) {
        opt.apply_threads = threads;
        EXPECT_EQ(baseline, explore_and_fingerprint(m.graph, opt))
            << m.name << " mode=" << static_cast<int>(mode)
            << " apply_threads=" << threads;
      }
    }
  }
}

TEST(ApplyPipeline, CyclesDeterministicAcrossSearchAndApplyThreads) {
  // The descendants map is built on the clean e-graph before the searches
  // and read-only afterwards, and the sweep runs after the serial rebuild,
  // so the pre-filter's answers and the filtered node set are a pure
  // function of the e-graph state, never of worker count or scheduling:
  // bit-identical e-graphs for any search_threads/apply_threads pair.
  for (const ModelInfo& m : seed_examples()) {
    TensatOptions opt = explore_options();
    opt.search_threads = 1;
    opt.apply_threads = 1;
    const std::string baseline = explore_and_fingerprint(m.graph, opt);
    for (size_t threads : {2u, 8u}) {
      opt.search_threads = threads;
      opt.apply_threads = threads;
      EXPECT_EQ(baseline, explore_and_fingerprint(m.graph, opt))
          << m.name << " threads=" << threads;
    }
  }
}

TEST(ApplyPipeline, SearchAndApplyThreadsCompose) {
  // Both pools on at once must not perturb anything either.
  for (const ModelInfo& m : seed_examples()) {
    TensatOptions opt = explore_options();
    const std::string baseline = explore_and_fingerprint(m.graph, opt);
    opt.search_threads = 4;
    opt.apply_threads = 4;
    EXPECT_EQ(baseline, explore_and_fingerprint(m.graph, opt)) << m.name;
  }
}

// ---- Absolute pins -----------------------------------------------------------

/// 64-bit digest of the full e-graph fingerprint (class ids, analysis data,
/// e-node sets with insertion stamps, filtered flags, root).
uint64_t egraph_digest(const EGraph& eg) {
  return service::fingerprint(fingerprint(eg));
}

TEST(ApplyPipeline, ExploredEGraphsPinned) {
  // The thread-count tests above compare runs with each other; these
  // constants pin the explorations themselves, so a change to the cycle
  // analysis (or anything else on the exploration path) that alters which
  // e-nodes are added, merged or filtered cannot pass unnoticed. Update a
  // constant only for a change meant to alter exploration results.
  struct Pin {
    std::string name;
    uint64_t digest;
  };
  const auto check = [](const std::string& name, const EGraph& eg,
                        uint64_t expected) {
    EXPECT_TRUE(is_acyclic(eg)) << name;
    EXPECT_EQ(egraph_digest(eg), expected)
        << name << ": got 0x" << std::hex << egraph_digest(eg);
  };

  const std::vector<Pin> seed_pins = {
      {"shared_matmuls", 0x83252a7980673d5aull},
      {"NasRNN", 0xe3757f382ff52d90ull},
      {"BERT", 0x3da1a8a85cb80ba4ull},
      {"ResNeXt-50", 0x7b2002063a72308full},
      {"NasNet-A", 0xe32b46e27f878f0dull},
      {"SqueezeNet", 0x2b48c36819c27137ull},
      {"VGG-19", 0x081452ece8dcc3c0ull},
      {"Inception-v3", 0x9e3a2f8ff0f31433ull},
      {"ResNet-50", 0x6216ac0f821aea2eull},
  };
  const std::vector<ModelInfo> seeds = seed_examples();
  ASSERT_EQ(seeds.size(), seed_pins.size());
  for (size_t i = 0; i < seeds.size(); ++i) {
    ASSERT_EQ(seeds[i].name, seed_pins[i].name);
    EGraph eg = seed_egraph(seeds[i].graph);
    run_exploration(eg, default_rules(), explore_options());
    check(seeds[i].name, eg, seed_pins[i].digest);
  }

  // Larger models at two iteration counts each; every one of them closes
  // cycles that the sweep must resolve. BERT applies multi-pattern rules in
  // a second iteration too: that is where the descendants-map pre-filter
  // rejects applications, so its pins also fail if the map answers wrong.
  struct ModelPin {
    std::string name;
    Graph graph;
    int k_max;
    int k_multi;
    uint64_t digest;
  };
  const std::vector<ModelPin> model_pins = {
      // Both BERT digests moved when rebuild() began deduplicating the e-nodes
      // of a class that two of them became congruent in (they were
      // 0xc8454746edd4784e and 0x254f19cbb08dc860 with the copies kept).
      {"BERT(1,8,32)", make_bert(1, 8, 32), 2, 2, 0x162c1d30fb788cebull},
      {"BERT(1,8,32)", make_bert(1, 8, 32), 4, 2, 0xb55a758641999200ull},
      {"NasRNN(1,2,8)", make_nasrnn(1, 2, 8), 2, 1, 0xeaa752d6c1e7f410ull},
      {"NasRNN(1,2,8)", make_nasrnn(1, 2, 8), 4, 1, 0x9efa093424f279b2ull},
  };
  for (const ModelPin& p : model_pins) {
    TensatOptions opt = explore_options();
    opt.k_max = p.k_max;
    opt.k_multi = p.k_multi;
    EGraph eg = seed_egraph(p.graph);
    run_exploration(eg, default_rules(), opt);
    const std::string name = p.name + " k_max=" + std::to_string(p.k_max) +
                             " k_multi=" + std::to_string(p.k_multi);
    check(name, eg, p.digest);
    EXPECT_GT(eg.num_filtered(), 0u) << name;
  }

  // A resumed session, as the service runs one: a perturbed second graph is
  // added into the explored e-graph between the two calls, and exploration
  // resumes with fresh node headroom and the persisted scheduler. The
  // resumed call merges and filters on top of the first call's e-graph.
  TensatOptions opt = explore_options();
  ExplorationSession session;
  EGraph eg = seed_egraph(make_nasnet_a(1, 4, 8));
  run_exploration(eg, default_rules(), opt, &session);
  check("session call 1", eg, 0xe32b46e27f878f0dull);
  const size_t filtered_first = eg.num_filtered();
  Graph second = make_nasnet_a(2, 4, 8);
  const Id root = second.single_root();
  eg.set_root(eg.add_graph(second).at(root));
  opt.node_limit += eg.num_enodes_total();
  run_exploration(eg, default_rules(), opt, &session);
  // Moved with the deduplication above (0x1871abcf69fafb8f with the copies).
  check("session call 2", eg, 0x13cc6868e901fe60ull);
  EXPECT_GT(eg.num_filtered(), filtered_first);
}

// ---- Waves ------------------------------------------------------------------

/// Number of `name` spans the tracer recorded.
size_t span_count(const trace::Summary& summary, const std::string& name) {
  for (const trace::Summary::SpanAgg& span : summary.spans)
    if (span.name == name) return span.count;
  return 0;
}

TEST(ApplyPipeline, MultiWaveExplorationsPinned) {
  // Iterations that queue more than one wave (4,096 applications) of work:
  // every wave after the first plans against the e-graph the earlier waves
  // committed to, with the union-find compressed but not rebuilt. The pins
  // hold at every thread count, so the wave snapshots are thread-independent.
  struct WavePin {
    std::string name;
    Graph graph;
    int k_max;
    size_t node_limit;
    StopReason stop;
    uint64_t digest;
  };
  const std::vector<WavePin> pins = {
      // These two read the same digests as when every plan of an iteration
      // read the iteration's start: the waves' snapshots change nothing.
      // 4 waves over 3 iterations.
      {"NasRNN(3,16,512,4)", make_nasrnn(3, 16, 512, 4), 3, 50000,
       StopReason::kIterLimit, 0x66edcc5fdac087d5ull},
      // The node limit trips inside the second iteration's second wave.
      {"NasRNN(1,2,8)", make_nasrnn(1, 2, 8), 8, 25000, StopReason::kNodeLimit,
       0xddd93b79ab61362aull},
      // 7 waves over 3 iterations. Read against the iteration's start, this
      // exploration gave 0xaf965890b1b5a30e with 12 fewer applications: a
      // later wave's conditions can see joins that earlier waves committed
      // (joins only grow weight_only and only clear concat histories), so
      // it accepts applications the iteration-start snapshot rejected.
      // In waves, it read 0x157325d5e37dd879 until rebuild() deduplicated
      // congruent e-nodes within a class (133 copies in 28 classes).
      {"BERT(4,64,512)", make_bert(4, 64, 512), 3, 50000,
       StopReason::kIterLimit, 0x69ed605a378f16d8ull},
  };
  for (const WavePin& p : pins) {
    TensatOptions opt = explore_options();
    opt.k_max = p.k_max;
    opt.k_multi = 2;
    opt.node_limit = p.node_limit;
    for (size_t threads : {1u, 2u, 8u}) {
      opt.apply_threads = threads;
      const std::string name = p.name + " apply_threads=" + std::to_string(threads);
      trace::Tracer tracer;
      tracer.install();
      EGraph eg = seed_egraph(p.graph);
      const ExploreStats stats = run_exploration(eg, default_rules(), opt);
      tracer.uninstall();
      const trace::Summary summary = tracer.summary();
      EXPECT_GT(span_count(summary, "explore/plan"),
                static_cast<size_t>(stats.iterations))
          << name;
      EXPECT_EQ(span_count(summary, "explore/plan"),
                span_count(summary, "explore/commit"))
          << name;
      EXPECT_EQ(stats.stop, p.stop) << name;
      EXPECT_EQ(egraph_invariant_violations(eg), "") << name;
      EXPECT_EQ(egraph_digest(eg), p.digest)
          << name << ": got 0x" << std::hex << egraph_digest(eg);
      if (p.stop == StopReason::kNodeLimit) {
        // The limit stopped the planning: the planned chunks, of at most 128
        // applications each, cannot hold every queued application.
        size_t queued = 0;
        for (const RuleTelemetry& r : stats.rules) queued += r.planned;
        EXPECT_LT(span_count(summary, "apply/plan_chunk") * 128, queued) << name;
      }
    }
  }
}

// ---- plan/commit parity with instantiate() ---------------------------------

TEST(ApplyPipeline, PlanCommitParityWithDirectInstantiate) {
  const Rewrite rule =
      make_rewrite("t", "(ewadd ?x ?y)", "(relu (ewadd ?y ?x))");
  Graph g;
  const Id a = g.input("a", {8, 8});
  const Id b = g.input("b", {8, 8});
  g.add_root(g.ewadd(a, b));

  EGraph direct = seed_egraph(g);
  EGraph staged = seed_egraph(g);
  ASSERT_EQ(fingerprint(direct), fingerprint(staged));

  Subst subst;
  // Bind against the seeded input classes (same ids in both copies).
  const auto matches = search_pattern(direct, rule.pat, rule.src_roots[0]);
  ASSERT_EQ(matches.size(), 1u);
  subst = matches[0].subst;

  const auto direct_id = instantiate(direct, rule.pat, rule.dst_roots[0], subst);
  ASSERT_TRUE(direct_id.has_value());

  NodeBuffer buf(staged);
  const uint64_t version_before = staged.version();
  const auto planned = plan_instantiate(buf, rule.pat, rule.dst_roots[0], subst);
  ASSERT_TRUE(planned.has_value());
  EXPECT_TRUE(NodeBuffer::is_staged(*planned));  // relu+ewadd are new nodes
  EXPECT_EQ(buf.size(), 2u);
  // Planning is read-only: nothing changed yet.
  EXPECT_EQ(staged.version(), version_before);
  EXPECT_EQ(fingerprint(seed_egraph(g)), fingerprint(staged));
  // The planned analysis data matches what the committed class will carry.
  EXPECT_EQ(to_string(buf.data(*planned)), to_string(direct.data(*direct_id)));

  const auto committed = buf.commit(staged, *planned);
  ASSERT_TRUE(committed.has_value());
  EXPECT_EQ(*committed, *direct_id);
  EXPECT_EQ(fingerprint(direct), fingerprint(staged));

  // Re-committing is idempotent (memoized), and re-planning the same target
  // now resolves to the existing class without staging anything.
  EXPECT_EQ(buf.commit(staged, *planned), committed);
  NodeBuffer buf2(staged);
  const auto replanned = plan_instantiate(buf2, rule.pat, rule.dst_roots[0], subst);
  ASSERT_TRUE(replanned.has_value());
  EXPECT_FALSE(NodeBuffer::is_staged(*replanned));
  EXPECT_EQ(*replanned, *committed);
  EXPECT_EQ(buf2.size(), 0u);
}

TEST(ApplyPipeline, PlanRejectsShapeFailuresWithoutMutation) {
  // A matmul of shape-incompatible operands must fail the plan the same way
  // instantiate() fails, leaving no trace in the e-graph.
  Graph g;
  const Id a = g.input("a", {8, 8});
  const Id z = g.input("z", {3, 5});  // 8x8 matmul 3x5: shape check fails
  g.add_root(a);
  g.add_root(z);
  EGraph eg;
  const auto mapping = eg.add_graph(g);
  eg.set_root(mapping.at(a));  // fingerprint() reads the root

  Graph pat{GraphKind::kPattern};
  const std::vector<Id> roots = parse_all_into(pat, "(matmul 0 ?x ?z)");
  ASSERT_EQ(roots.size(), 1u);
  Subst subst;
  ASSERT_TRUE(subst.bind(Symbol("x"), mapping.at(a)));
  ASSERT_TRUE(subst.bind(Symbol("z"), mapping.at(z)));

  const std::string before = fingerprint(eg);
  const size_t enodes_before = eg.num_enodes_total();
  NodeBuffer buf(eg);
  EXPECT_FALSE(plan_instantiate(buf, pat, roots[0], subst).has_value());
  EXPECT_EQ(buf.size(), 1u);  // the axis literal was staged before the failure
  EXPECT_EQ(before, fingerprint(eg));  // ...but nothing touched the e-graph

  // Contrast with instantiate(): it adds nodes bottom-up, so the failed
  // instantiation leaves the orphan literal behind — the junk the
  // pipeline's all-or-nothing commit avoids.
  EXPECT_FALSE(instantiate(eg, pat, roots[0], subst).has_value());
  EXPECT_EQ(eg.num_enodes_total(), enodes_before + 1);
}

// ---- Mid-apply time limit ---------------------------------------------------

TEST(ApplyPipeline, TimeLimitMidApplyStopsPhaseAndRecordsReason) {
  // A rule whose condition stalls makes the apply phase blow the time limit
  // while applications are still pending: the whole phase must stop and the
  // stop reason must be kTimeLimit (it used to leak kIterLimit because the
  // mid-apply check only broke to the next rule).
  Graph g;
  const Id x = g.input("x", {8, 8});
  const Id y = g.input("y", {8, 8});
  g.add_root(g.ewadd(x, y));
  g.add_root(g.ewadd(y, x));

  auto stall = [](const InfoLookup&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    return true;
  };
  std::vector<Rewrite> rules;
  rules.push_back(make_rewrite("comm", "(ewadd ?a ?b)", "(ewadd ?b ?a)", stall));

  TensatOptions opt;
  opt.k_max = 50;
  opt.explore_time_limit_s = 0.05;
  EGraph eg = seed_egraph(g);
  const ExploreStats stats = run_exploration(eg, rules, opt);
  EXPECT_EQ(stats.stop, StopReason::kTimeLimit);
  EXPECT_LE(stats.iterations, 2);

  // Same workload with a generous limit saturates instead.
  opt.explore_time_limit_s = 60.0;
  EGraph eg2 = seed_egraph(g);
  const ExploreStats ok = run_exploration(eg2, rules, opt);
  EXPECT_EQ(ok.stop, StopReason::kSaturated);
}

// ---- Phase timing -----------------------------------------------------------

TEST(ApplyPipeline, PhaseTimingsArePopulatedAndCoherent) {
  TensatOptions opt = explore_options();
  EGraph eg = seed_egraph(shared_matmuls());
  const ExploreStats stats = run_exploration(eg, default_rules(), opt);
  EXPECT_GT(stats.search_seconds, 0.0);
  EXPECT_GT(stats.apply_seconds, 0.0);
  EXPECT_GT(stats.rebuild_seconds, 0.0);
  // The cycle-analysis phases are split out of apply/rebuild so perfbench
  // can time the descendants map and the sweep on their own.
  EXPECT_GT(stats.dmap_seconds, 0.0);
  EXPECT_GE(stats.cycle_sweep_seconds, 0.0);
  // The phases are the bulk of exploration; they can never exceed it.
  EXPECT_LE(stats.search_seconds + stats.apply_seconds + stats.rebuild_seconds +
                stats.dmap_seconds + stats.cycle_sweep_seconds,
            stats.seconds);
}

}  // namespace
}  // namespace tensat
