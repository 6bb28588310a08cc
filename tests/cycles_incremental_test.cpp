// Differential suite for the incremental cycle analysis
// (cycles/incremental.h) against the fresh-rebuild baseline it replaces:
//
//  * full explorations on BERT / NasRNN / SharedMM with
//    TensatOptions::incremental_cycles on vs off must produce identical
//    filtered-node sets and bit-identical e-graphs after every iteration
//    (k_max = k replays exactly the first k iterations, so sweeping k pins
//    the per-iteration states, not just the final one);
//  * the incremental map's reaches() must equal a DescendantsMap built
//    fresh on the same clean e-graph after every epoch advance;
//  * the scoped sweep must filter exactly the nodes the full filter_cycles
//    pass filters;
//  * large fused regions must trip the full-reconstruction fallback without
//    changing any answer;
//  * a thread hint of 0 must resolve to the hardware count, so the full
//    reconstruction's row-DP reaches the pool under the optimizer's
//    default apply_threads;
//  * the e-graph's CycleJournal must record every mutation class the
//    analysis depends on (adds, apply-phase and congruence merges,
//    filterings).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cycles/cycles.h"
#include "cycles/incremental.h"
#include "models/models.h"
#include "optimizer/optimizer.h"
#include "rewrite/rules.h"
#include "support/parallel.h"
#include "tests/egraph_fingerprint.h"

namespace tensat {
namespace {

Graph shared_matmuls(int groups, int per_group) {
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

std::vector<ModelInfo> differential_models() {
  std::vector<ModelInfo> models;
  models.push_back({"BERT(2,32,128)", make_bert(2, 32, 128)});
  models.push_back({"NasRNN(1,8,64)", make_nasrnn(1, 8, 64)});
  models.push_back({"SharedMM(4x6)", shared_matmuls(4, 6)});
  return models;
}

/// Canonical classes whose analysis value is a {64, 64} tensor — safe to
/// merge with one another (the analysis join requires equal kinds and
/// shapes; the e-graph also holds kNum/kStr parameter classes).
std::vector<Id> mergeable_tensor_classes(const EGraph& eg) {
  std::vector<Id> out;
  const std::vector<int32_t> shape{64, 64};
  for (Id cls : eg.canonical_classes())
    if (eg.data(cls).is_tensor() && eg.data(cls).shape == shape) out.push_back(cls);
  return out;
}

/// Mismatches between two reachability relations over all ordered pairs of
/// `classes`. Returns a count so a failure reports one number instead of a
/// million EXPECT lines.
size_t reaches_mismatches(const ReachabilityMap& a, const ReachabilityMap& b,
                          const std::vector<Id>& classes) {
  size_t mismatches = 0;
  for (Id from : classes)
    for (Id to : classes)
      if (a.reaches(from, to) != b.reaches(from, to)) ++mismatches;
  return mismatches;
}

/// Pairs where `fresh` reaches but `inc` does not — the unsound direction
/// for the pre-filter (it would let a known-cyclic merge through only to be
/// caught later, which is allowed, but the maps are specified to be equal).
size_t under_approximations(const ReachabilityMap& inc, const ReachabilityMap& fresh,
                            const std::vector<Id>& classes) {
  size_t misses = 0;
  for (Id from : classes)
    for (Id to : classes)
      if (fresh.reaches(from, to) && !inc.reaches(from, to)) ++misses;
  return misses;
}

// ---- Exploration-level differential ----------------------------------------

TEST(CyclesIncremental, ExplorationParityOnEveryIterationPrefix) {
  for (const ModelInfo& m : differential_models()) {
    for (int k = 1; k <= 3; ++k) {
      TensatOptions opt;
      opt.k_max = k;
      opt.k_multi = 1;
      opt.node_limit = 4000;

      opt.incremental_cycles = false;
      EGraph fresh = seed_egraph(m.graph);
      const ExploreStats fresh_stats = run_exploration(fresh, default_rules(), opt);

      opt.incremental_cycles = true;
      EGraph inc = seed_egraph(m.graph);
      const ExploreStats inc_stats = run_exploration(inc, default_rules(), opt);

      EXPECT_EQ(fresh_stats.iterations, inc_stats.iterations) << m.name << " k=" << k;
      EXPECT_EQ(fresh_stats.stop, inc_stats.stop) << m.name << " k=" << k;
      EXPECT_EQ(fresh_stats.applications, inc_stats.applications)
          << m.name << " k=" << k;
      EXPECT_EQ(fresh.num_filtered(), inc.num_filtered()) << m.name << " k=" << k;
      EXPECT_EQ(fingerprint(fresh), fingerprint(inc)) << m.name << " k=" << k;
      EXPECT_TRUE(is_acyclic(inc)) << m.name << " k=" << k;

      // The final e-graphs are clean, so the two reachability
      // implementations must agree on them too.
      const DescendantsMap fresh_map(fresh);
      const DescendantsMap inc_graph_map(inc);
      EXPECT_EQ(reaches_mismatches(fresh_map, inc_graph_map, inc.canonical_classes()),
                0u)
          << m.name << " k=" << k;
    }
  }
}

// ---- Epoch-level reaches() parity ------------------------------------------

TEST(CyclesIncremental, ReachesMatchesFreshMapAfterEveryEpoch) {
  // Deterministic churn driving the subsystem directly: add unary nodes over
  // existing classes, merge some of them back into their operands (which
  // closes cycles the sweep must resolve) and some sideways (plain fusion),
  // then rebuild / sweep / advance and compare against a from-scratch
  // DescendantsMap on the same clean e-graph.
  EGraph eg = seed_egraph(shared_matmuls(3, 3));
  eg.rebuild();
  IncrementalCycleAnalysis inc(eg);

  for (int round = 0; round < 6; ++round) {
    std::vector<Id> classes = mergeable_tensor_classes(eg);
    const size_t n = classes.size();
    // Adds: a relu and a tanh over a couple of round-dependent classes.
    std::vector<Id> added;
    for (int i = 0; i < 2; ++i) {
      const Id base = classes[(round * 7 + i * 3) % n];
      added.push_back(eg.add(TNode{Op::kRelu, 0, {}, {base}}));
      added.push_back(eg.add(TNode{Op::kTanh, 0, {}, {added.back()}}));
    }
    if (round % 2 == 0) {
      // Close a cycle: the class now contains a node reaching itself.
      eg.merge(classes[(round * 7) % n], added[1]);
    } else {
      // Sideways fusion (same shape by construction: unary over same base).
      eg.merge(added[0], added[2]);
    }
    eg.rebuild();
    inc.sweep_cycles();
    ASSERT_TRUE(is_acyclic(eg)) << "round " << round;
    inc.advance_epoch();

    const DescendantsMap fresh(eg);
    const std::vector<Id> canonical = eg.canonical_classes();
    EXPECT_EQ(under_approximations(inc, fresh, canonical), 0u) << "round " << round;
    EXPECT_EQ(reaches_mismatches(inc, fresh, canonical), 0u) << "round " << round;
  }
  // The churn above must exercise the scoped path, not just the fallback.
  EXPECT_GT(inc.stats().incremental_updates, 0u);
  EXPECT_EQ(inc.stats().epochs, 6u);
}

// ---- Scoped sweep vs full filter_cycles ------------------------------------

TEST(CyclesIncremental, ScopedSweepFiltersExactlyWhatFullSweepDoes) {
  // Two identical e-graphs get the same cycle-closing merges; one is swept
  // through the incremental analysis, the other with the full pass. The
  // filtered sets (and hence the fingerprints) must be identical, because
  // the scoped sweep delegates to the very same filter_cycles once its
  // detection DFS confirms a cycle.
  const auto build = [] {
    Graph g;
    const Id x = g.input("x", {8, 8});
    const Id r = g.relu(x);
    const Id t = g.tanh(r);
    g.add_root(g.ewadd(t, g.sigmoid(x)));
    return g;
  };
  EGraph full = seed_egraph(build());
  EGraph scoped = seed_egraph(build());
  full.rebuild();
  scoped.rebuild();
  ASSERT_EQ(fingerprint(full), fingerprint(scoped));
  IncrementalCycleAnalysis inc(scoped);

  // x = tanh(relu(x)): a cycle through two classes.
  const auto cycle_merge = [](EGraph& eg) {
    const std::vector<Id> classes = eg.canonical_classes();
    // Find the input class (the only leaf) and the tanh class.
    Id input = kInvalidId, tanh_cls = kInvalidId;
    for (Id cls : classes) {
      for (const EClassNode& e : eg.eclass(cls).nodes) {
        if (e.node.op == Op::kInput) input = cls;
        if (e.node.op == Op::kTanh) tanh_cls = cls;
      }
    }
    eg.merge(input, tanh_cls);
    eg.rebuild();
  };
  cycle_merge(full);
  cycle_merge(scoped);
  ASSERT_FALSE(is_acyclic(full));

  const size_t filtered_full = filter_cycles(full);
  const size_t filtered_scoped = inc.sweep_cycles();
  inc.advance_epoch();
  EXPECT_GE(filtered_full, 1u);
  EXPECT_EQ(filtered_full, filtered_scoped);
  EXPECT_TRUE(is_acyclic(scoped));
  EXPECT_EQ(fingerprint(full), fingerprint(scoped));
  EXPECT_EQ(inc.stats().sweeps_full, 1u);

  // And the post-filtering epoch still matches a fresh map (filtering
  // removes reachability, which the row recompute must propagate).
  const DescendantsMap fresh(scoped);
  EXPECT_EQ(reaches_mismatches(inc, fresh, scoped.canonical_classes()), 0u);
}

// ---- Fallback on large fused regions ---------------------------------------

TEST(CyclesIncremental, LargeMergeRegionFallsBackToFullReconstruction) {
  // Ten disjoint input->relu chains; merging every input into one class
  // dirties the single fused class plus (through congruence) every relu —
  // the whole graph — which must trip the fallback rather than "repair"
  // every row one by one.
  Graph g;
  std::vector<Id> roots;
  for (int i = 0; i < 10; ++i)
    g.add_root(g.relu(g.input("x" + std::to_string(i), {4, 4})));
  EGraph eg = seed_egraph(g);
  eg.rebuild();
  IncrementalCycleAnalysis inc(eg);
  ASSERT_EQ(inc.stats().fresh_rebuilds, 1u);  // the initial construction

  std::vector<Id> inputs;
  for (Id cls : eg.canonical_classes())
    for (const EClassNode& e : eg.eclass(cls).nodes)
      if (e.node.op == Op::kInput) inputs.push_back(cls);
  ASSERT_EQ(inputs.size(), 10u);
  for (size_t i = 1; i < inputs.size(); ++i) eg.merge(inputs[0], inputs[i]);
  eg.rebuild();
  inc.sweep_cycles();
  ASSERT_TRUE(is_acyclic(eg));
  inc.advance_epoch();

  EXPECT_EQ(inc.stats().fresh_rebuilds, 2u);
  EXPECT_EQ(inc.stats().incremental_updates, 0u);
  const DescendantsMap fresh(eg);
  EXPECT_EQ(reaches_mismatches(inc, fresh, eg.canonical_classes()), 0u);
}

// ---- Add-only epochs skip the sweep entirely --------------------------------

TEST(CyclesIncremental, AddOnlyEpochSkipsSweepAndStaysExact) {
  EGraph eg = seed_egraph(shared_matmuls(2, 2));
  eg.rebuild();
  IncrementalCycleAnalysis inc(eg);

  const Id base = mergeable_tensor_classes(eg).front();
  eg.add(TNode{Op::kRelu, 0, {}, {base}});
  eg.add(TNode{Op::kSigmoid, 0, {}, {base}});
  eg.rebuild();
  EXPECT_EQ(inc.sweep_cycles(), 0u);
  EXPECT_EQ(inc.stats().sweeps_skipped, 1u);  // no merges -> no DFS at all
  inc.advance_epoch();

  const DescendantsMap fresh(eg);
  EXPECT_EQ(reaches_mismatches(inc, fresh, eg.canonical_classes()), 0u);
  // Ids the epoch has never seen return false, like the fresh map.
  EXPECT_FALSE(inc.reaches(static_cast<Id>(eg.num_ids()) + 5, base));
  EXPECT_FALSE(inc.reaches(base, static_cast<Id>(eg.num_ids()) + 5));
  EXPECT_FALSE(inc.reaches(kInvalidId, base));
}

// ---- Thread-count hint --------------------------------------------------------

TEST(CyclesIncremental, ZeroThreadsRebuildsOnTheHardwarePool) {
  // threads = 0 means one worker per hardware thread, as everywhere else
  // (the optimizer passes TensatOptions::apply_threads, default 0): the
  // full reconstruction's wide topological waves must reach the pool
  // exactly as often as with that count spelled out.
  EGraph eg = seed_egraph(shared_matmuls(8, 12));
  TensatOptions opt;
  opt.k_max = 3;
  opt.k_multi = 1;
  opt.node_limit = 6000;
  run_exploration(eg, default_rules(), opt);

  const auto pool_jobs = [&eg](size_t threads) {
    const uint64_t before = WorkerPool::global().stats().jobs;
    const IncrementalCycleAnalysis inc(eg, /*fallback_fraction=*/0.5, threads);
    return WorkerPool::global().stats().jobs - before;
  };
  const size_t hw = resolve_threads(0);
  const uint64_t hw_jobs = pool_jobs(hw);
  // On a multi-core host the e-graph must have a wave heavy enough to
  // dispatch (its 1120-row waves are), or the comparison below proves
  // nothing.
  if (hw > 1) EXPECT_GT(hw_jobs, 0u);
  EXPECT_EQ(pool_jobs(0), hw_jobs);
}

// ---- Journal unit coverage ---------------------------------------------------

TEST(CyclesIncremental, JournalRecordsAddsMergesCongruenceAndFilters) {
  Graph g;
  const Id a = g.input("a", {4, 4});
  const Id b = g.input("b", {4, 4});
  g.add_root(g.relu(a));
  g.add_root(g.relu(b));
  EGraph eg = seed_egraph(g);
  eg.rebuild();

  CycleJournal journal;
  eg.set_cycle_journal(&journal);
  ASSERT_TRUE(journal.empty());

  Id in_a = kInvalidId, in_b = kInvalidId;
  for (Id cls : eg.canonical_classes())
    for (const EClassNode& e : eg.eclass(cls).nodes)
      if (e.node.op == Op::kInput)
        (in_a == kInvalidId ? in_a : in_b) = cls;
  ASSERT_NE(in_b, kInvalidId);

  // An add lands in new_classes.
  const Id added = eg.add(TNode{Op::kTanh, 0, {}, {in_a}});
  ASSERT_EQ(journal.new_classes.size(), 1u);
  EXPECT_EQ(journal.new_classes[0], added);

  // Merging the two inputs records one merge; the rebuild's congruence
  // closure (relu(a) == relu(b)) records a second one.
  eg.merge(in_a, in_b);
  ASSERT_EQ(journal.merges.size(), 1u);
  eg.rebuild();
  EXPECT_EQ(journal.merges.size(), 2u);

  // set_filtered records the (canonical) class.
  eg.set_filtered(added, eg.eclass(added).nodes.size() - 1);
  ASSERT_EQ(journal.filtered_classes.size(), 1u);
  EXPECT_EQ(journal.filtered_classes[0], eg.find(added));
  // Re-filtering the same node is not a change.
  eg.set_filtered(added, eg.eclass(added).nodes.size() - 1);
  EXPECT_EQ(journal.filtered_classes.size(), 1u);

  eg.set_cycle_journal(nullptr);
  eg.add(TNode{Op::kSigmoid, 0, {}, {eg.find(in_a)}});
  EXPECT_EQ(journal.new_classes.size(), 1u);  // detached: no recording
}

}  // namespace
}  // namespace tensat
