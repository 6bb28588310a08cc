// Tests for the optimization service (src/service/) and the session-
// lifecycle fixes it depends on: canonical fingerprints, the LRU result
// cache, cache-hit bit-identity, session resume, the scheduler's global
// iteration clock, and a concurrent mixed-submission stress run (exercised
// under ASan and TSan in CI).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "egraph/egraph.h"
#include "ematch/scheduler.h"
#include "models/models.h"
#include "optimizer/optimizer.h"
#include "rewrite/rules.h"
#include "serialize/serialize.h"
#include "service/cache.h"
#include "service/fingerprint.h"
#include "service/service.h"
#include "support/check.h"

namespace tensat {
namespace {

const T4CostModel& model() {
  static const T4CostModel m;
  return m;
}

/// Small, fast-to-optimize settings shared by the service tests.
service::ServiceOptions fast_options() {
  service::ServiceOptions opt;
  opt.tensat.k_max = 3;
  opt.tensat.k_multi = 1;
  opt.tensat.node_limit = 400;
  opt.tensat.explore_time_limit_s = 10.0;
  opt.tensat.ilp.time_limit_s = 5.0;
  opt.tensat.ilp.rel_gap = 0.0;  // exact parity: hits vs recompute
  return opt;
}

Graph shared_matmuls(int n = 3) {
  Graph g;
  const Id x = g.input("x", {64, 64});
  for (int i = 0; i < n; ++i)
    g.add_root(g.matmul(x, g.weight("w" + std::to_string(i), {64, 64})));
  return g;
}

// ---------------------------------------------------------------------------
// Fingerprint canonicalization

TEST(Fingerprint, InvariantUnderNodeRelabeling) {
  // The same DAG built in two different construction orders gets different
  // node ids; the canonical form must not see the difference.
  Graph a;
  {
    const Id x = a.input("x", {32, 32});
    const Id w = a.weight("w", {32, 32});
    a.add_root(a.relu(a.matmul(x, w)));
  }
  Graph b;
  {
    const Id w = b.weight("w", {32, 32});  // ids swapped vs `a`
    const Id x = b.input("x", {32, 32});
    b.add_root(b.relu(b.matmul(x, w)));
  }
  EXPECT_EQ(service::canonical_form(a), service::canonical_form(b));
  EXPECT_EQ(service::graph_fingerprint(a), service::graph_fingerprint(b));
}

TEST(Fingerprint, InvariantUnderRootOrder) {
  Graph a;
  {
    const Id x = a.input("x", {32, 32});
    a.add_root(a.relu(x));
    a.add_root(a.matmul(x, a.weight("w", {32, 32})));
  }
  Graph b;
  {
    const Id x = b.input("x", {32, 32});
    const Id mm = b.matmul(x, b.weight("w", {32, 32}));
    b.add_root(mm);  // roots listed in the opposite order
    b.add_root(b.relu(x));
  }
  EXPECT_EQ(service::canonical_form(a), service::canonical_form(b));
}

TEST(Fingerprint, DistinguishesDifferentGraphs) {
  Graph a = shared_matmuls(2);
  Graph b = shared_matmuls(3);
  EXPECT_NE(service::canonical_form(a), service::canonical_form(b));
  // Same ops, different wiring: x*(w1), x*(w2) vs x*(w1), w1-as-input reuse.
  Graph c;
  {
    const Id x = c.input("x", {32, 32});
    const Id w = c.weight("w", {32, 32});
    c.add_root(c.matmul(x, w));
    c.add_root(c.relu(x));
  }
  Graph d;
  {
    const Id x = d.input("x", {32, 32});
    const Id w = d.weight("w", {32, 32});
    d.add_root(d.matmul(x, w));
    d.add_root(d.relu(w));  // relu of the weight, not the input
  }
  EXPECT_NE(service::canonical_form(c), service::canonical_form(d));
}

TEST(Fingerprint, SurvivesSerializeRoundTrip) {
  const Graph g = make_bert(1, 4, 8);
  const Graph back = load_graph_from_string(save_graph_to_string(g));
  EXPECT_EQ(service::canonical_form(g), service::canonical_form(back));
}

TEST(Fingerprint, PinnedCanonicalForms) {
  // The canonical bytes are a contract, not an implementation detail: the
  // result cache keys on them, and response fingerprints, flight records and
  // perfbench's drift check all hash them. The invariance tests above would
  // still pass if a rewrite changed the bytes, so pin them. Each tiny model
  // is pinned as built; with 1-3 extra `relu(input p<k>)` roots, appended in
  // descending k so that ranking the roots has to reorder them; and with
  // shared roots (an inner node of its root, then the root again), which
  // the DFS reaches already numbered.
  struct Pin {
    const char* model;
    int extra_roots;
    bool shared_roots;
    uint64_t form;  // fingerprint(canonical_form(g))
    uint64_t key;   // fingerprint(g.canonical_key())
  };
  static const Pin kPins[] = {
      {"NasRNN", 0, false, 0x9c94f9ca83170a51ull, 0x9c94f9ca83170a51ull},
      {"NasRNN", 1, false, 0xdcec12df546c3336ull, 0xdcec12df546c3336ull},
      {"NasRNN", 0, true, 0xd0c8cb7fc3efbd66ull, 0x059cb27633075e0cull},
      {"BERT", 0, false, 0x420384ef5a5aea5full, 0x420384ef5a5aea5full},
      {"BERT", 2, false, 0x04a430891c5b9475ull, 0x8befde9facb61442ull},
      {"BERT", 0, true, 0x898e556e01f4d3c8ull, 0xe4d7d532400b2216ull},
      {"ResNeXt-50", 0, false, 0x76036898eccb54caull, 0x76036898eccb54caull},
      {"ResNeXt-50", 3, false, 0x03f3c99d5d544bf8ull, 0xe3ed055fb942655aull},
      {"ResNeXt-50", 0, true, 0x6817160330b80e26ull, 0x27f7283535fa8a8aull},
      {"NasNet-A", 0, false, 0xf46719f10c10a405ull, 0xf46719f10c10a405ull},
      {"NasNet-A", 1, false, 0x0014e6014081080eull, 0x0014e6014081080eull},
      {"NasNet-A", 0, true, 0x817a1f8aeae637baull, 0xe0acba8293fd6ebcull},
      {"SqueezeNet", 0, false, 0x7b3f8177adec9634ull, 0x7b3f8177adec9634ull},
      {"SqueezeNet", 2, false, 0x60f6635ca0659c73ull, 0x747ced36ec4ec13dull},
      {"SqueezeNet", 0, true, 0x41a6d4c28ddc2bb9ull, 0xa13f8dba374a48e7ull},
      {"VGG-19", 0, false, 0x042f0aaf30b0ba09ull, 0x042f0aaf30b0ba09ull},
      {"VGG-19", 3, false, 0xea90a3745711fe5dull, 0xb12be7557141e50dull},
      {"VGG-19", 0, true, 0x0e21f22ac95dfd8aull, 0xee732f011a7fe220ull},
      {"Inception-v3", 0, false, 0x5e9e5361b242e0d0ull, 0x5e9e5361b242e0d0ull},
      {"Inception-v3", 1, false, 0x221958044b1823e1ull, 0x221958044b1823e1ull},
      {"Inception-v3", 0, true, 0x87bb828160dcf96cull, 0xdb7d810114987c64ull},
      {"ResNet-50", 0, false, 0x0a1798fc09b43436ull, 0x0a1798fc09b43436ull},
      {"ResNet-50", 2, false, 0x3e698749fb1b7cb3ull, 0x3011903dc5c482b5ull},
      {"ResNet-50", 0, true, 0xd713bc4c05515e10ull, 0xc1f75a3c934d47acull},
  };
  const std::vector<ModelInfo> models = tiny_models();
  size_t checked = 0;
  for (const Pin& pin : kPins) {
    for (const ModelInfo& m : models) {
      if (m.name != pin.model) continue;
      Graph g = m.graph;
      if (pin.shared_roots) {
        const Id root = g.roots()[0];
        Id inner = root;
        for (Id c : g.node(root).children) {
          if (!g.node(c).children.empty()) {
            inner = c;
            break;
          }
        }
        g.add_root(inner);
        g.add_root(root);
      }
      for (int k = pin.extra_roots - 1; k >= 0; --k)
        g.add_root(g.relu(g.input("p" + std::to_string(k), {16, 16})));
      const std::string label = std::string(pin.model) + " +" +
                                std::to_string(pin.extra_roots) +
                                (pin.shared_roots ? " shared" : "");
      EXPECT_EQ(service::fingerprint(service::canonical_form(g)), pin.form) << label;
      EXPECT_EQ(service::fingerprint(g.canonical_key()), pin.key) << label;
      ++checked;
    }
  }
  EXPECT_EQ(checked, std::size(kPins));
}

// ---------------------------------------------------------------------------
// Result cache

TEST(ResultCache, LruEvictionOrder) {
  service::ResultCache cache(2);
  auto entry = [](double cost) {
    service::CachedResult r;
    r.optimized_cost = cost;
    return r;
  };
  cache.insert("a", entry(1));
  cache.insert("b", entry(2));
  ASSERT_TRUE(cache.lookup("a").has_value());  // promotes "a" over "b"
  cache.insert("c", entry(3));                 // evicts "b"
  EXPECT_TRUE(cache.lookup("a").has_value());
  EXPECT_FALSE(cache.lookup("b").has_value());
  EXPECT_TRUE(cache.lookup("c").has_value());
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ResultCache, RefreshOverwritesAndPromotes) {
  service::ResultCache cache(2);
  service::CachedResult r;
  r.optimized_text = "v1";
  cache.insert("a", r);
  r.optimized_text = "v2";
  cache.insert("b", service::CachedResult{});
  cache.insert("a", r);  // refresh promotes "a"
  cache.insert("c", service::CachedResult{});
  auto hit = cache.lookup("a");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->optimized_text, "v2");
  EXPECT_FALSE(cache.lookup("b").has_value());  // "b" was LRU
}

// ---------------------------------------------------------------------------
// Service: cache behavior

TEST(Service, CacheHitReturnsBitIdenticalResult) {
  service::ServiceOptions opt = fast_options();
  opt.enable_sessions = false;
  opt.enable_warm_starts = false;  // cache-only regime: cold path is pure
  service::OptimizationService svc(default_rules(), model(), opt);
  const std::string text = save_graph_to_string(shared_matmuls());

  const service::ServiceResponse cold = svc.submit(text);
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_FALSE(cold.cache_hit);
  const service::ServiceResponse hit = svc.submit(text);
  ASSERT_TRUE(hit.ok) << hit.error;
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.optimized_text, cold.optimized_text);  // exact bytes
  EXPECT_EQ(hit.optimized_cost, cold.optimized_cost);
  EXPECT_EQ(hit.fingerprint, cold.fingerprint);

  // A relabeled/reordered submission of the same graph is the same key.
  Graph relabeled = load_graph_from_string(text);
  const service::ServiceResponse hit2 =
      svc.submit(save_graph_to_string(relabeled));
  ASSERT_TRUE(hit2.ok);
  EXPECT_TRUE(hit2.cache_hit);
  EXPECT_EQ(hit2.optimized_text, cold.optimized_text);

  // And the hit matches an independent recomputation through optimize().
  TensatOptions direct = opt.tensat;
  const TensatResult fresh =
      optimize(load_graph_from_string(text), default_rules(), model(), direct);
  ASSERT_TRUE(fresh.ok);
  EXPECT_EQ(save_graph_to_string(fresh.optimized), hit.optimized_text);

  const service::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.cache_hits, 2u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.errors, 0u);
}

TEST(Service, MalformedSubmissionIsRejectedNotFatal) {
  service::OptimizationService svc(default_rules(), model(), fast_options());
  const service::ServiceResponse r1 = svc.submit("not a graph at all");
  EXPECT_FALSE(r1.ok);
  EXPECT_FALSE(r1.error.empty());
  const service::ServiceResponse r2 =
      svc.submit("tensat-graph v1\n0 str x@32_32\n0 input 0\nroots 0\n");
  EXPECT_FALSE(r2.ok);  // duplicate id
  // The service keeps serving after rejects.
  const service::ServiceResponse ok = svc.submit(
      save_graph_to_string(shared_matmuls()));
  EXPECT_TRUE(ok.ok) << ok.error;
  EXPECT_EQ(svc.stats().errors, 2u);
}

TEST(Service, CacheDisabledNeverHits) {
  service::ServiceOptions opt = fast_options();
  opt.enable_cache = false;
  service::OptimizationService svc(default_rules(), model(), opt);
  const std::string text = save_graph_to_string(shared_matmuls(2));
  EXPECT_FALSE(svc.submit(text).cache_hit);
  EXPECT_FALSE(svc.submit(text).cache_hit);
  EXPECT_EQ(svc.stats().cache_hits, 0u);
  EXPECT_EQ(svc.cache_size(), 0u);
}

// ---------------------------------------------------------------------------
// Service: sessions

TEST(Service, SessionResumesAndStaysCostCertified) {
  service::ServiceOptions opt = fast_options();
  opt.enable_cache = false;  // force the session path on every submit
  service::OptimizationService svc(default_rules(), model(), opt);

  Graph base = shared_matmuls(3);
  const service::ServiceResponse first =
      svc.submit(save_graph_to_string(base), "client-a");
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_FALSE(first.session_reused);
  EXPECT_LE(first.optimized_cost, first.original_cost + 1e-9);

  // Perturbed variant: one more shared matmul. The session e-graph already
  // holds the first variant's exploration.
  Graph variant = shared_matmuls(4);
  const service::ServiceResponse second =
      svc.submit(save_graph_to_string(variant), "client-a");
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_TRUE(second.session_reused);
  EXPECT_LE(second.optimized_cost, second.original_cost + 1e-9);

  // Resubmitting the first variant resumes again and must still certify.
  // Note the certificate is against the request's INPUT, not against the
  // first run's result: continued exploration can merge classes into cycles
  // whose filtering (Algorithm 2 is conservative) removes nodes an earlier
  // extraction used — identically so with or without a session.
  const service::ServiceResponse third =
      svc.submit(save_graph_to_string(base), "client-a");
  ASSERT_TRUE(third.ok) << third.error;
  EXPECT_TRUE(third.session_reused);
  EXPECT_LE(third.optimized_cost, third.original_cost + 1e-9);
  EXPECT_EQ(third.original_cost, first.original_cost);

  const service::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.sessions_created, 1u);
  EXPECT_EQ(stats.sessions_reused, 2u);
  EXPECT_EQ(svc.live_sessions(), 1u);
}

TEST(Service, TinySessionCapRetiresAndRecovers) {
  service::ServiceOptions opt = fast_options();
  opt.enable_cache = false;
  opt.session_node_cap = 1;  // every explored e-graph exceeds this
  service::OptimizationService svc(default_rules(), model(), opt);
  const std::string text = save_graph_to_string(shared_matmuls(2));
  ASSERT_TRUE(svc.submit(text, "s").ok);
  const service::ServiceResponse second = svc.submit(text, "s");
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_FALSE(second.session_reused);  // retired, restarted fresh
  EXPECT_GE(svc.stats().sessions_retired, 1u);
  EXPECT_LE(second.optimized_cost, second.original_cost + 1e-9);
}

// ---------------------------------------------------------------------------
// Session-lifecycle regressions: the scheduler's iteration clock

TEST(SessionLifecycle, StaleBanWouldReappearOnLocalClock) {
  // The raw bug: ban deadlines are absolute iteration numbers. A scheduler
  // persisted across runs, replayed against a per-run counter restarting at
  // 0, re-imposes every expired ban.
  ematch::BackoffOptions opt;
  opt.match_limit = 1;
  opt.ban_length = 5;
  ematch::BackoffScheduler sched(1, opt);
  EXPECT_TRUE(sched.record_matches(0, 0, 10));  // blows the budget: ban
  EXPECT_TRUE(sched.is_banned(0, 3));
  EXPECT_FALSE(sched.is_banned(0, 6));  // ban expired on the global clock

  // Run 1 executed 8 iterations. Run 2 restarting its local clock at 0
  // would see the ban as active again (the bug)...
  EXPECT_TRUE(sched.is_banned(0, 0));
  // ...while the session's global clock (iteration_base = 8) does not.
  const size_t iteration_base = 8;
  EXPECT_FALSE(sched.is_banned(0, iteration_base + 0));
}

TEST(SessionLifecycle, IterationBaseAccumulatesAcrossRuns) {
  Graph g = shared_matmuls(2);
  const Id root = g.single_root();
  EGraph eg;
  auto mapping = eg.add_graph(g);
  eg.set_root(mapping.at(root));

  TensatOptions opt;
  opt.k_max = 3;
  opt.node_limit = 400;
  ExplorationSession session;
  const ExploreStats first = run_exploration(eg, default_rules(), opt, &session);
  EXPECT_EQ(session.iteration_base, static_cast<size_t>(first.iterations));
  ASSERT_NE(session.scheduler, nullptr);
  EXPECT_EQ(session.scheduler->num_rules(), default_rules().size());

  opt.node_limit = 400 + eg.num_enodes_total();
  const ExploreStats second = run_exploration(eg, default_rules(), opt, &session);
  EXPECT_EQ(session.iteration_base,
            static_cast<size_t>(first.iterations + second.iterations));
}

TEST(SessionLifecycle, ResumedRuleSetMustMatch) {
  Graph g = shared_matmuls(2);
  const Id root = g.single_root();
  EGraph eg;
  auto mapping = eg.add_graph(g);
  eg.set_root(mapping.at(root));
  TensatOptions opt;
  opt.k_max = 1;
  opt.node_limit = 300;
  ExplorationSession session;
  run_exploration(eg, default_rules(), opt, &session);
  const std::vector<Rewrite> fewer(default_rules().begin(),
                                   default_rules().begin() + 3);
  EXPECT_THROW(run_exploration(eg, fewer, opt, &session), Error);
}

// ---------------------------------------------------------------------------
// Concurrent mixed-submission stress (run under ASan and TSan in CI)

TEST(ServiceStress, ConcurrentMixedSubmissions) {
  service::ServiceOptions opt = fast_options();
  opt.tensat.k_max = 2;
  opt.tensat.node_limit = 250;
  service::OptimizationService svc(default_rules(), model(), opt);

  const std::vector<std::string> graphs = {
      save_graph_to_string(shared_matmuls(2)),
      save_graph_to_string(shared_matmuls(3)),
      save_graph_to_string(make_bert(1, 4, 8)),
  };
  // Pre-populate the cache cold and serially so every later hit has a
  // reference byte string to be compared against.
  std::vector<std::string> reference;
  for (const std::string& text : graphs) {
    const service::ServiceResponse r = svc.submit(text);
    ASSERT_TRUE(r.ok) << r.error;
    reference.push_back(r.optimized_text);
  }
  // Per-thread perturbed variants for the session legs: not in the result
  // cache (session results never populate it and these keys are unique), so
  // every session submission actually runs the session path.
  std::vector<std::string> session_texts;
  for (int t = 0; t < 4; ++t) {
    Graph g = shared_matmuls(2);
    g.add_root(g.relu(g.input("p" + std::to_string(t), {16, 16})));
    session_texts.push_back(save_graph_to_string(g));
  }

  constexpr int kThreads = 4;
  constexpr int kPerThread = 6;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t]() {
      for (int i = 0; i < kPerThread; ++i) {
        const int pick = (t + i) % static_cast<int>(graphs.size());
        switch (i % 3) {
          case 0: {  // cache-eligible repeat: must match the reference bytes
            const service::ServiceResponse r = svc.submit(graphs[pick]);
            if (!r.ok) ++failures;
            if (r.ok && r.optimized_text != reference[pick]) ++mismatches;
            break;
          }
          case 1: {  // session request (same key per thread: serialized)
            const service::ServiceResponse r =
                svc.submit(session_texts[t], "thread-" + std::to_string(t));
            if (!r.ok) ++failures;
            break;
          }
          default: {  // malformed request: rejected, never fatal
            const service::ServiceResponse r = svc.submit("roots nonsense");
            if (r.ok) ++failures;
            break;
          }
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  const service::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.requests,
            static_cast<size_t>(kThreads * kPerThread) + graphs.size());
  EXPECT_EQ(stats.errors, static_cast<size_t>(kThreads * (kPerThread / 3)));
  EXPECT_GT(stats.cache_hits, 0u);
}

}  // namespace
}  // namespace tensat
