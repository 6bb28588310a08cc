// Seeded random harnesses for the efficient cycle filter (cycles/cycles.h,
// Algorithm 2), pinning the properties exploration relies on:
//
//  * after any random interleaving of adds, merges and filterings, a
//    rebuild followed by filter_cycles() leaves the e-graph acyclic, with
//    no e-node stored twice and exactly one hash-cons key per stored e-node
//    (tests/egraph_invariants.h);
//  * on that clean, acyclic e-graph, DescendantsMap::reaches() is exactly
//    reachability over unfiltered e-nodes, checked against a plain DFS on
//    every ordered class pair. The O(1) pre-filter's soundness rests on it:
//    a missed reachability would wave a known-cyclic merge through;
//  * full explorations with random rule subsets leave no cycle unfiltered,
//    no e-node stored twice and no hash-cons entry astray
//    (tests/egraph_invariants.h) after any iteration (k_max = k replays
//    exactly the first k iterations), and produce bit-identical e-graphs at
//    1, 2 and 8 search/apply threads.
//
// Everything is seeded (support/rng.h), so failures reproduce exactly.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cycles/cycles.h"
#include "models/models.h"
#include "optimizer/optimizer.h"
#include "rewrite/rules.h"
#include "support/rng.h"
#include "tests/egraph_fingerprint.h"
#include "tests/egraph_invariants.h"

namespace tensat {
namespace {

/// Canonical classes holding {8, 8} tensors — mutually mergeable (the
/// analysis join requires equal kind and shape).
std::vector<Id> tensor_classes(const EGraph& eg) {
  std::vector<Id> out;
  const Dims shape{8, 8};
  for (Id cls : eg.canonical_classes())
    if (eg.data(cls).is_tensor() && eg.data(cls).shape == shape) out.push_back(cls);
  return out;
}

/// The classes reachable from `from` through at least one edge of an
/// unfiltered e-node, indexed by class id.
std::vector<bool> reachable_by_dfs(const EGraph& eg, Id from) {
  std::vector<bool> seen(eg.num_ids(), false);
  std::vector<Id> stack{from};
  while (!stack.empty()) {
    const Id cls = stack.back();
    stack.pop_back();
    for (const EClassNode& e : eg.eclass(cls).nodes) {
      if (e.filtered) continue;
      for (Id c : e.node.children) {
        const Id child = eg.find(c);
        if (seen[child]) continue;
        seen[child] = true;
        stack.push_back(child);
      }
    }
  }
  return seen;
}

/// Ordered class pairs on which the map and the DFS disagree.
size_t reaches_mismatches(const EGraph& eg, const DescendantsMap& map) {
  const std::vector<Id> classes = eg.canonical_classes();
  size_t mismatches = 0;
  for (Id from : classes) {
    const std::vector<bool> seen = reachable_by_dfs(eg, from);
    for (Id to : classes)
      if (map.reaches(from, to) != seen[to]) ++mismatches;
  }
  return mismatches;
}

TEST(CyclesFuzz, RandomChurnSweepsAcyclicAndMapIsExact) {
  size_t total_filtered = 0;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    Graph g;
    std::vector<Id> inputs;
    for (int i = 0; i < 4; ++i)
      inputs.push_back(g.input("x" + std::to_string(i), {8, 8}));
    g.add_root(g.ewadd(g.relu(inputs[0]), g.tanh(inputs[1])));
    g.add_root(g.ewmul(inputs[2], inputs[3]));
    EGraph eg = seed_egraph(g);
    eg.rebuild();

    for (int round = 0; round < 10; ++round) {
      std::vector<Id> classes = tensor_classes(eg);
      // Random adds: unary or binary nodes over random existing classes.
      const int adds = static_cast<int>(rng.below(8));
      for (int i = 0; i < adds; ++i) {
        const Id a = eg.find(classes[rng.below(classes.size())]);
        switch (rng.below(4)) {
          case 0: eg.add(TNode{Op::kRelu, 0, {}, {a}}); break;
          case 1: eg.add(TNode{Op::kTanh, 0, {}, {a}}); break;
          case 2: eg.add(TNode{Op::kSigmoid, 0, {}, {a}}); break;
          default: {
            const Id b = eg.find(classes[rng.below(classes.size())]);
            eg.add(TNode{Op::kEwadd, 0, {}, {a, b}});
            break;
          }
        }
      }
      // Random merges — including ancestor/descendant pairs, which close
      // cycles the sweep must then resolve.
      classes = tensor_classes(eg);
      const int merges = static_cast<int>(rng.below(4));
      for (int i = 0; i < merges; ++i)
        eg.merge(classes[rng.below(classes.size())],
                 classes[rng.below(classes.size())]);
      // Occasional random filtering, mimicking out-of-band cycle resolution.
      if (rng.chance(0.25)) {
        const Id cls = eg.find(classes[rng.below(classes.size())]);
        const size_t nodes = eg.eclass(cls).nodes.size();
        if (nodes > 0) eg.set_filtered(cls, rng.below(nodes));
      }

      eg.rebuild();
      total_filtered += filter_cycles(eg);
      ASSERT_TRUE(is_acyclic(eg)) << "seed " << seed << " round " << round;
      ASSERT_EQ(egraph_invariant_violations(eg), "")
          << "seed " << seed << " round " << round;
      const DescendantsMap map(eg);
      ASSERT_EQ(reaches_mismatches(eg, map), 0u)
          << "seed " << seed << " round " << round;
    }
  }
  // The merges must actually have closed cycles, or the sweep went untested.
  EXPECT_GT(total_filtered, 0u);
}

TEST(CyclesFuzz, RandomRuleSubsetsStayAcyclicAndThreadIndependent) {
  const std::vector<Rewrite>& all_rules = default_rules();
  std::vector<ModelInfo> models = tiny_models();
  size_t filtered_runs = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 0x5851f42d4c957f2dull);
    std::vector<Rewrite> rules;
    for (const Rewrite& r : all_rules)
      if (rng.chance(0.4)) rules.push_back(r);
    if (rules.empty()) rules.push_back(all_rules[rng.below(all_rules.size())]);
    const ModelInfo& m = models[rng.below(models.size())];
    const int k_max = 2 + static_cast<int>(rng.below(2));

    for (int k = 1; k <= k_max; ++k) {
      TensatOptions opt;
      opt.k_max = k;
      opt.k_multi = 1;
      opt.node_limit = 1500;
      std::string baseline;
      for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
        opt.search_threads = threads;
        opt.apply_threads = threads;
        EGraph eg = seed_egraph(m.graph);
        run_exploration(eg, rules, opt);
        EXPECT_EQ(egraph_invariant_violations(eg), "")
            << "seed " << seed << " model " << m.name << " k=" << k
            << " threads=" << threads;
        if (threads == 1) {
          baseline = fingerprint(eg);
          if (eg.num_filtered() > 0) ++filtered_runs;
        } else {
          EXPECT_EQ(baseline, fingerprint(eg))
              << "seed " << seed << " model " << m.name << " k=" << k
              << " threads=" << threads << " rules " << rules.size();
        }
      }
    }
  }
  // Some of the explorations must have closed cycles, or the acyclicity
  // checks above prove nothing about the filter.
  EXPECT_GT(filtered_runs, 0u);
}

}  // namespace
}  // namespace tensat
