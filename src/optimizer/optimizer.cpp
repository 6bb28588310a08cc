#include "optimizer/optimizer.h"

#include <algorithm>
#include <atomic>

#include "cycles/cycles.h"
#include "cycles/incremental.h"
#include "rewrite/matcher.h"
#include "rewrite/multi.h"
#include "support/check.h"
#include "support/parallel.h"
#include "support/timer.h"
#include "trace/trace.h"

namespace tensat {
namespace {

/// One pending application: the rule, the per-source matched root classes,
/// and the combined substitution.
struct Application {
  const Rewrite* rule;
  size_t rule_index;  // into the rules vector (per-rule telemetry key)
  std::vector<Id> src_classes;
  Subst subst;
};

/// The merge is only sound if the target computes a value of the same kind
/// and shape as its matched source class. Deliberately a subset of
/// ValueInfo::operator== (hist/num/str/weight_only are joinable); stage-1
/// planning and the stage-2 re-check must agree on it.
bool merge_sound(const ValueInfo& a, const ValueInfo& b) {
  return a.kind == b.kind && a.shape == b.shape && a.shape2 == b.shape2;
}

/// Adds the guarded scope's wall time to `acc` on every exit path — the
/// per-rule seconds accounting for loops that bail with `continue`.
struct SecondsGuard {
  explicit SecondsGuard(double& acc) : acc(acc) {}
  ~SecondsGuard() { acc += timer.seconds(); }
  SecondsGuard(const SecondsGuard&) = delete;
  SecondsGuard& operator=(const SecondsGuard&) = delete;
  double& acc;
  Timer timer;
};

/// Stage 1 plans applications in fixed index chunks; each chunk owns one
/// staging arena and scratch, so workers share nothing mutable, duplicate
/// targets within a chunk are planned (and shape-inferred) once, and the
/// app -> chunk partition is a pure function of the application index —
/// worker count and scheduling cannot influence any plan.
constexpr size_t kPlanChunk = 128;

/// Fewest pending applications for which stage 1 fans its chunks out over
/// the pool; smaller iterations plan every chunk on the calling thread
/// (identical plans either way — only the dispatch changes). Measured
/// break-even on a 4-core x86 host, median of 40 interleaved explorations
/// at apply_threads 1 and 0 per iteration, over every iteration of 2+
/// chunks of the seven Table-1 models (k_max 8, node limit 900) and of
/// NasRNN, NasNet and BERT at service-mix and larger limits: the pool lost
/// in 13 of 16 two-chunk iterations (134-242 applications, 0.50-0.86x), in
/// 9 of 14 of three or four chunks (264-500, 0.50-0.99x), and in none of
/// the 4 from 548 up (1.03-1.93x faster). Waking workers costs tens of
/// microseconds, which is most of a small iteration's planning time.
constexpr size_t kMinParallelPlanWork = 4 * kPlanChunk;

struct PlanChunk {
  explicit PlanChunk(const EGraph& eg) : buf(eg) {}
  NodeBuffer buf;
  std::vector<Id> targets;  // concatenated target lists of the chunk's apps
  std::vector<Id> memo;     // plan_instantiate scratch, reused across apps
};

/// Stage-1 result for one pending application: its slice of the chunk's
/// target arena and whether it survived its read-only checks.
struct ApplyPlan {
  uint32_t targets_first{0};
  uint32_t targets_count{0};
  bool viable{false};
};

/// Stage 1 of the apply pipeline (parallel, read-only): evaluates the rule
/// condition on the matched variables' analysis data, the efficient pre-
/// filter (Algorithm 2, lines 3-9: skip the substitution if a matched class
/// is a descendant of, or is, a class we would merge into), and plans the
/// target instantiation against the clean e-graph snapshot. Writes only into
/// `plan` and `chunk`.
void plan_application(const EGraph& eg, const Application& app, ApplyPlan& plan,
                      PlanChunk& chunk, CycleFilterMode mode,
                      const ReachabilityMap* dmap) {
  const Rewrite& rule = *app.rule;
  if (rule.cond) {
    auto lookup = [&](Symbol var) -> const ValueInfo& {
      auto bound = app.subst.get(var);
      TENSAT_CHECK(bound.has_value(), "condition references unbound ?" << var.str());
      return eg.data(*bound);
    };
    if (!rule.check_cond(lookup)) return;
  }
  if (mode == CycleFilterMode::kEfficient && dmap != nullptr) {
    for (Id src : app.src_classes) {
      const Id a = eg.find(src);
      for (const auto& [var, cls] : app.subst.bindings()) {
        const Id c = eg.find(cls);
        if (c == a || dmap->reaches(c, a)) return;
      }
    }
  }

  plan.targets_first = static_cast<uint32_t>(chunk.targets.size());
  for (Id dst_root : rule.dst_roots) {
    auto target =
        plan_instantiate(chunk.buf, rule.pat, dst_root, app.subst, chunk.memo);
    if (!target.has_value()) {  // shape check failed
      chunk.targets.resize(plan.targets_first);
      return;
    }
    chunk.targets.push_back(*target);
  }
  for (size_t k = 0; k < rule.dst_roots.size(); ++k) {
    if (!merge_sound(eg.data(app.src_classes[k]),
                     chunk.buf.data(chunk.targets[plan.targets_first + k]))) {
      chunk.targets.resize(plan.targets_first);
      return;
    }
  }
  plan.targets_count = static_cast<uint32_t>(rule.dst_roots.size());
  plan.viable = true;
}

/// Stage 2 of the apply pipeline (serial, plan order): commits a viable
/// plan's staged nodes through the real hash-cons — duplicates planned by
/// other applications collapse here — and performs the merges. Returns true
/// if the e-graph changed. `committed` is caller-owned scratch.
bool commit_application(EGraph& eg, const Application& app, const ApplyPlan& plan,
                        PlanChunk& chunk, CycleFilterMode mode,
                        std::vector<Id>& committed) {
  committed.clear();
  for (uint32_t k = 0; k < plan.targets_count; ++k) {
    auto id = chunk.buf.commit(eg, chunk.targets[plan.targets_first + k]);
    if (!id.has_value()) return false;  // commit-time shape check failed
    committed.push_back(*id);
  }
  // Re-verify merge soundness on the live analysis data: commits earlier in
  // the batch can have joined analysis values (e.g. cleared a concat
  // history) since the plan compared against the snapshot.
  for (size_t k = 0; k < committed.size(); ++k)
    if (!merge_sound(eg.data(app.src_classes[k]), eg.data(committed[k])))
      return false;
  bool changed = false;
  for (size_t k = 0; k < committed.size(); ++k) {
    const Id src = eg.find(app.src_classes[k]);
    const Id dst = eg.find(committed[k]);
    if (src == dst) continue;
    // Vanilla filtering (paper §5.2): discard the merge. The target nodes
    // stay in the e-graph unmerged, which is harmless.
    if (mode == CycleFilterMode::kVanilla && merge_would_create_cycle(eg, src, dst))
      continue;
    changed |= eg.merge(src, dst);
  }
  return changed;
}

}  // namespace

EGraph seed_egraph(const Graph& input) {
  Graph g = input;  // single_root() mutates
  const Id root = g.single_root();
  EGraph eg;
  auto mapping = eg.add_graph(g);
  eg.set_root(mapping.at(root));
  return eg;
}

ExplorationSession::ExplorationSession() = default;
ExplorationSession::~ExplorationSession() = default;
ExplorationSession::ExplorationSession(ExplorationSession&&) noexcept = default;
ExplorationSession& ExplorationSession::operator=(ExplorationSession&&) noexcept =
    default;

ExploreStats run_exploration(EGraph& eg, const std::vector<Rewrite>& rules,
                             const TensatOptions& options,
                             ExplorationSession* session) {
  trace::ScopedSpan explore_span("explore");
  Timer timer;
  ExploreStats stats;
  stats.rules.resize(rules.size());
  for (size_t r = 0; r < rules.size(); ++r) stats.rules[r].name = rules[r].name;
  const MultiPlan plan = build_multi_plan(rules);
  // Scheduler: session-owned when resuming, call-local otherwise. Ban
  // timestamps are ABSOLUTE iteration numbers, so a resumed session must
  // keep numbering iterations on its global clock (iteration_base): bans
  // recorded by the previous call then expire exactly on schedule, instead
  // of being re-served from zero every call (see ExplorationSession).
  std::optional<ematch::BackoffScheduler> local_scheduler;
  if (session != nullptr) {
    if (session->scheduler == nullptr)
      session->scheduler =
          std::make_unique<ematch::BackoffScheduler>(rules.size(), options.backoff);
    TENSAT_CHECK(session->scheduler->num_rules() == rules.size(),
                 "session resumed with a different rule set");
  } else {
    local_scheduler.emplace(rules.size(), options.backoff);
  }
  ematch::BackoffScheduler& scheduler =
      session != nullptr ? *session->scheduler : *local_scheduler;
  const size_t iter_base = session != nullptr ? session->iteration_base : 0;

  // Which single-pattern rules consume each canonical pattern: a pattern
  // whose every user is banned this iteration need not be searched at all.
  // Multi-pattern rules search through their own joint program instead, so
  // patterns only multi-pattern rules use are never searched separately.
  std::vector<std::vector<size_t>> pattern_users(plan.patterns.size());
  for (size_t r = 0; r < rules.size(); ++r) {
    if (rules[r].is_multi()) continue;
    for (const SourceBinding& sb : plan.rule_sources[r])
      pattern_users[sb.pattern_index].push_back(r);
  }

  eg.rebuild();
  // Incremental cycle analysis (cycles/incremental.h): attach once — the
  // e-graph journals every add/merge/filtering from here on — and build the
  // initial epoch. The fresh path below rebuilds a DescendantsMap per
  // iteration instead, as the differential baseline. A session resumes its
  // persisted analysis: the journal stayed attached between calls, so
  // whatever the service added to the e-graph since the last call is
  // already recorded and gets folded in at the first iteration's (lazy)
  // epoch advance — nothing is lost, nothing is rebuilt from scratch.
  const bool incremental_cycles =
      options.incremental_cycles &&
      options.cycle_filter == CycleFilterMode::kEfficient;
  std::unique_ptr<IncrementalCycleAnalysis> owned_cycles;
  IncrementalCycleAnalysis* inc_cycles = nullptr;
  if (incremental_cycles) {
    const trace::ScopedSpan dmap_span("explore/dmap", stats.dmap_seconds);
    if (session != nullptr) {
      if (session->cycles == nullptr) {
        session->cycles = std::make_unique<IncrementalCycleAnalysis>(
            eg, /*fallback_fraction=*/0.5, options.apply_threads);
      } else {
        TENSAT_CHECK(session->cycles->egraph() == &eg,
                     "session resumed against a different e-graph");
      }
      inc_cycles = session->cycles.get();
    } else {
      owned_cycles = std::make_unique<IncrementalCycleAnalysis>(
          eg, /*fallback_fraction=*/0.5, options.apply_threads);
      inc_cycles = owned_cycles.get();
    }
  }
  for (int iter = 0; iter < options.k_max; ++iter) {
    if (timer.seconds() > options.explore_time_limit_s) {
      stats.stop = StopReason::kTimeLimit;
      break;
    }
    if (eg.num_enodes_total() >= options.node_limit) {
      stats.stop = StopReason::kNodeLimit;
      break;
    }
    const trace::ScopedSpan iter_span("explore/iteration", iter);
    const Timer iter_timer;
    const size_t matches_before_iter = stats.matches_found;
    const size_t applications_before_iter = stats.applications;
    const uint64_t version_before = eg.version();
    stats.iterations = iter + 1;

    auto rule_active = [&](size_t r) {
      if (scheduler.is_banned(r, iter_base + static_cast<size_t>(iter)))
        return false;
      return !(rules[r].is_multi() && iter >= options.k_multi);
    };

    // The descendants relation for the pre-filter: a frozen epoch of the
    // incremental map (advanced at the previous rebuild boundary), or — in
    // fresh mode — a DescendantsMap rebuilt here, once per iteration
    // (Algorithm 2 line 3). Either is immutable until the serial boundary,
    // so stage-1 workers share it read-only.
    std::unique_ptr<DescendantsMap> dmap;
    const ReachabilityMap* reach = nullptr;
    if (options.cycle_filter == CycleFilterMode::kEfficient) {
      const trace::ScopedSpan dmap_span("explore/dmap", stats.dmap_seconds);
      if (incremental_cycles) {
        // Serial epoch boundary: drain the journal accumulated since the
        // last boundary into the next frozen epoch. Done lazily here — not
        // after the previous iteration's sweep — so the final iteration's
        // journal (whose epoch nobody would ever query) is never paid for,
        // mirroring the fresh path building its map only at iteration start.
        inc_cycles->advance_epoch();
        reach = inc_cycles;
      } else {
        dmap = std::make_unique<DescendantsMap>(eg);
        reach = dmap.get();
      }
    }

    // SEARCH: all canonical patterns with at least one active consumer, once
    // each (Algorithm 1 line 10), plus one joint search per active
    // multi-pattern rule. All searches are read-only over the clean e-graph,
    // so they fan out across the worker pool; results land in per-task slots
    // and are identical for any thread count.
    std::vector<std::vector<PatternMatch>> matches(plan.patterns.size());
    std::vector<std::vector<ematch::JointMatch>> joint_matches(rules.size());
    struct SearchTask {
      bool joint;
      size_t index;                 // pattern index, or rule index if joint
      ematch::MatchLimits limits;
      /// Rules charged for this search's wall time (RuleTelemetry::seconds):
      /// the pattern's active users, or the joint rule itself.
      std::vector<size_t> charged_rules;
    };
    std::vector<SearchTask> tasks;
    for (size_t p = 0; p < plan.patterns.size(); ++p) {
      // A pattern with no users at all (a source only multi-pattern rules
      // consume) is covered by the joint searches — it is not a "skipped"
      // search.
      if (pattern_users[p].empty()) continue;
      std::vector<size_t> active_users;
      for (size_t r : pattern_users[p])
        if (rule_active(r)) active_users.push_back(r);
      if (!active_users.empty())
        tasks.push_back(SearchTask{false, p, {}, std::move(active_users)});
      else
        ++stats.searches_skipped;
    }
    for (size_t r = 0; r < rules.size(); ++r) {
      if (!rules[r].is_multi() || !rule_active(r)) continue;
      // The apply step stops after budget+1 combined matches (the +1 is
      // what trips the scheduler's ban), so the search needn't return more.
      ematch::MatchLimits limits;
      limits.max_matches = scheduler.match_limit(r) + 1;
      tasks.push_back(SearchTask{true, r, limits, {r}});
    }
    // Same dispatch gate as ematch::search_all: a sweep too small to
    // amortize thread spawns runs on the calling thread (identical results
    // either way — only the dispatch changes).
    size_t search_threads = options.search_threads;
    if (search_threads != 1) {
      std::vector<const ematch::Program*> progs;
      progs.reserve(tasks.size());
      for (const SearchTask& task : tasks)
        progs.push_back(task.joint ? &plan.joint_programs[task.index]
                                   : &plan.patterns[task.index].program);
      if (ematch::search_work_estimate(eg, progs) < ematch::kMinParallelSearchWork)
        search_threads = 1;
    }
    // Per-task wall time, written by whichever worker runs the task (its own
    // slot; parallel_for's join publishes it) and distributed to the charged
    // rules serially below.
    std::vector<double> task_seconds(tasks.size(), 0.0);
    {
      const trace::ScopedSpan search_span("explore/search",
                                          stats.search_seconds);
      parallel_for(tasks.size(), search_threads, [&](size_t t) {
        const SearchTask& task = tasks[t];
        const Timer task_timer;
        if (task.joint)
          joint_matches[task.index] =
              ematch::search_joint(eg, plan.joint_programs[task.index], task.limits);
        else
          matches[task.index] = ematch::search(eg, plan.patterns[task.index].program);
        task_seconds[t] = task_timer.seconds();
      });
    }
    for (size_t t = 0; t < tasks.size(); ++t) {
      const std::vector<size_t>& charged = tasks[t].charged_rules;
      const double share = task_seconds[t] / static_cast<double>(charged.size());
      for (size_t r : charged) stats.rules[r].seconds += share;
    }
    // Joint matches are credited to multi_matches_found in the collect loop.
    for (const SearchTask& task : tasks)
      if (!task.joint) stats.matches_found += matches[task.index].size();

    // APPLY. The phase is a pipeline (mirroring egg's deferred-invariant
    // design): COLLECT enumerates the pending applications per rule, stage 1
    // evaluates every application read-only (fans out over apply_threads),
    // stage 2 commits nodes and merges serially in plan order — the
    // determinism anchor — and stage 3 is the single rebuild below.
    //
    // COLLECT walks rules with multi-pattern rules first: they introduce the
    // merged operators the search is really after, and must not be starved
    // of node budget by the (cheap, plentiful) algebraic rules. Budgets and
    // bans depend only on the match sets, never on apply outcomes, so
    // collection needs no e-graph access at all.
    Timer apply_timer;
    std::vector<size_t> rule_order;
    for (size_t r = 0; r < rules.size(); ++r)
      if (rules[r].is_multi()) rule_order.push_back(r);
    for (size_t r = 0; r < rules.size(); ++r)
      if (!rules[r].is_multi()) rule_order.push_back(r);

    // Collect is timed with an explicit record (not ScopedSpan) because the
    // loop and the later stages share this scope.
    trace::Tracer* const tracer = trace::Tracer::current();
    const double collect_start_us = tracer != nullptr ? tracer->now_us() : 0.0;
    std::vector<Application> apps;
    for (size_t r : rule_order) {
      // Enumeration of a huge match set can itself be slow; a coarse
      // per-rule check keeps collect bounded by the time limit (stage 2
      // notices the blown limit and records the stop reason).
      if (timer.seconds() > options.explore_time_limit_s) break;
      const Rewrite& rule = rules[r];
      if (!rule_active(r)) continue;
      const SecondsGuard rule_guard(stats.rules[r].seconds);
      const size_t budget = scheduler.match_limit(r);
      size_t found = 0;
      // Queues one match tuple; false once the budget is blown (stop there:
      // record_matches below imposes the ban).
      const auto queue = [&](std::vector<Id> roots, Subst subst) {
        ++found;
        ++stats.rules[r].matches;
        if (found > budget) return false;
        ++stats.rules[r].planned;
        apps.push_back(Application{&rule, r, std::move(roots), std::move(subst)});
        return true;
      };
      if (rule.is_multi()) {
        // The joint search already produced the compatible combinations,
        // shared variables bound once (Algorithm 1 lines 16-20).
        for (const ematch::JointMatch& jm : joint_matches[r]) {
          ++stats.multi_matches_found;
          if (!queue(jm.roots, jm.subst)) break;
        }
      } else {
        // De-canonicalize the pattern's matches (Algorithm 1 lines 12-15).
        const SourceBinding& sb = plan.rule_sources[r][0];
        for (const PatternMatch& m : matches[sb.pattern_index])
          if (!queue({m.root}, decanonicalize(m.subst, sb.rename))) break;
      }
      if (scheduler.record_matches(r, iter_base + static_cast<size_t>(iter), found))
        ++stats.bans, ++stats.rules[r].bans;
    }
    if (tracer != nullptr)
      tracer->record_span("explore/collect", collect_start_us, tracer->now_us());

    // STAGE 1 (parallel, read-only): chunks of applications plan against the
    // clean e-graph; workers share only the e-graph and the descendants map.
    // Which worker plans which chunk is scheduling-dependent; the chunks and
    // their plans are not.
    const size_t num_chunks = (apps.size() + kPlanChunk - 1) / kPlanChunk;
    std::vector<PlanChunk> chunks;
    chunks.reserve(num_chunks);
    for (size_t c = 0; c < num_chunks; ++c) chunks.emplace_back(eg);
    std::vector<ApplyPlan> plans(apps.size());
    // Rule conditions are arbitrary user callbacks, so planning itself can
    // blow the time limit: every worker re-checks it per application and the
    // abort flag stops the rest of the pool. Un-planned applications simply
    // stay non-viable — stage 2 sees the blown limit immediately and stops
    // the phase. (Node limits need no stage-1 check: planning never grows
    // the e-graph.)
    std::atomic<bool> plan_timed_out{false};
    {
      const trace::ScopedSpan plan_span("explore/plan");
      const size_t plan_threads =
          apps.size() < kMinParallelPlanWork ? 1 : options.apply_threads;
      parallel_for(num_chunks, plan_threads, [&](size_t c) {
        // Per-chunk span on the worker's own lane: the per-thread view of
        // stage-1 occupancy (arg = chunk index).
        const trace::ScopedSpan chunk_span("apply/plan_chunk",
                                           static_cast<int64_t>(c));
        const size_t begin = c * kPlanChunk;
        const size_t end = std::min(begin + kPlanChunk, apps.size());
        for (size_t i = begin; i < end; ++i) {
          if (plan_timed_out.load(std::memory_order_relaxed)) return;
          if (timer.seconds() > options.explore_time_limit_s) {
            plan_timed_out.store(true, std::memory_order_relaxed);
            return;
          }
          plan_application(eg, apps[i], plans[i], chunks[c],
                           options.cycle_filter, reach);
        }
      });
    }

    // STAGE 2 (serial, plan order): commit one application at a time,
    // interleaving inserts and merges. Node and time limits are enforced
    // between applications; exceeding the time limit stops the whole apply
    // phase (the stop reason is recorded after the rebuild below).
    bool hit_node_limit = false;
    bool hit_time_limit = false;
    {
      const trace::ScopedSpan commit_span("explore/commit");
      std::vector<Id> committed;
      for (size_t i = 0; i < apps.size(); ++i) {
        if (eg.num_enodes_total() >= options.node_limit) {
          hit_node_limit = true;
          break;
        }
        if (timer.seconds() > options.explore_time_limit_s) {
          hit_time_limit = true;
          break;
        }
        if (!plans[i].viable) continue;
        RuleTelemetry& rt = stats.rules[apps[i].rule_index];
        const SecondsGuard commit_guard(rt.seconds);
        const size_t nodes_before = eg.num_enodes_total();
        if (commit_application(eg, apps[i], plans[i], chunks[i / kPlanChunk],
                               options.cycle_filter, committed)) {
          ++stats.applications;
          ++rt.committed;
        }
        rt.nodes_added += eg.num_enodes_total() - nodes_before;
      }
    }
    stats.apply_seconds += apply_timer.seconds();

    // STAGE 3: restore congruence, then filter cycles.
    {
      const trace::ScopedSpan rebuild_span("explore/rebuild",
                                           stats.rebuild_seconds);
      eg.rebuild();
    }
    // Post-processing (Algorithm 2 lines 10-18): filter remaining cycles.
    if (options.cycle_filter == CycleFilterMode::kEfficient ||
        options.cycle_filter == CycleFilterMode::kVanilla) {
      // Vanilla's per-merge check is complete for the merges it allows, but
      // congruence-closure merges during rebuild() can still fuse classes
      // into cycles; sweep them too so the invariant holds for both modes.
      // The incremental sweep restarts its DFS only from merge-dirtied
      // classes and skips outright on add-only iterations; when it does
      // find a cycle it delegates to the same full filter_cycles pass, so
      // the filtered sets match the fresh baseline exactly.
      const trace::ScopedSpan sweep_span("explore/sweep",
                                         stats.cycle_sweep_seconds);
      if (incremental_cycles)
        inc_cycles->sweep_cycles();
      else
        filter_cycles(eg);
    }

    // Growth timeline: one sample per executed iteration, taken after the
    // sweep so the sizes reflect what the next iteration will search. The
    // counter samples come from this serial context only, so their merged
    // sequences stay deterministic across thread counts.
    {
      IterationTelemetry g;
      g.eclasses = eg.num_classes();
      g.enodes = eg.num_enodes();
      g.enodes_total = eg.num_enodes_total();
      g.filtered = eg.num_filtered();
      g.matches = stats.matches_found - matches_before_iter;
      g.applications = stats.applications - applications_before_iter;
      g.seconds = iter_timer.seconds();
      trace::counter("egraph/classes", static_cast<int64_t>(g.eclasses));
      trace::counter("egraph/enodes", static_cast<int64_t>(g.enodes));
      trace::counter("egraph/hashcons", static_cast<int64_t>(g.enodes_total));
      trace::counter("egraph/filtered", static_cast<int64_t>(g.filtered));
      stats.growth.push_back(std::move(g));
    }

    if (hit_node_limit) {
      stats.stop = StopReason::kNodeLimit;
      break;
    }
    if (hit_time_limit) {
      stats.stop = StopReason::kTimeLimit;
      break;
    }
    if (eg.version() == version_before) {
      // Saturation may only be declared when no rule sat out the iteration
      // that just ran: a banned rule could still grow the e-graph. Lift the
      // bans and give those rules a final iteration instead.
      if (scheduler.any_banned(iter_base + static_cast<size_t>(iter))) {
        // Count the lifted bans per rule: banned beyond this iteration means
        // the unban below cuts the ban short.
        for (size_t r = 0; r < rules.size(); ++r)
          if (scheduler.is_banned(r, iter_base + static_cast<size_t>(iter) + 1))
            ++stats.rules[r].unbans;
        trace::instant("explore/unban_all");
        scheduler.unban_all();
        stats.stop = StopReason::kIterLimit;
        continue;
      }
      stats.stop = StopReason::kSaturated;
      break;
    }
    stats.stop = StopReason::kIterLimit;
  }

  stats.enodes = eg.num_enodes();
  stats.enodes_total = eg.num_enodes_total();
  stats.eclasses = eg.num_classes();
  stats.filtered = eg.num_filtered();
  stats.seconds = timer.seconds();
  // Advance the session's global iteration clock so the next run_exploration
  // call interprets the persisted scheduler's absolute ban deadlines
  // correctly (its local `iter` restarts at 0).
  if (session != nullptr)
    session->iteration_base += static_cast<size_t>(stats.iterations);
  return stats;
}

TensatResult optimize(const Graph& input, const std::vector<Rewrite>& rules,
                      const CostModel& model, const TensatOptions& options) {
  EGraph eg = seed_egraph(input);
  ExploreStats explore = run_exploration(eg, rules, options);
  TensatResult result = extract_certified(eg, input, model, options);
  result.explore = std::move(explore);
  return result;
}

TensatResult extract_certified(const EGraph& eg, const Graph& input,
                               const CostModel& model,
                               const TensatOptions& options) {
  TensatResult result;
  result.original_cost = graph_cost(input, model);

  Timer extract_timer;
  if (options.extractor == ExtractorKind::kGreedy) {
    ExtractionResult ext = extract_greedy(eg, model);
    result.ok = ext.ok;
    if (ext.ok) {
      result.optimized = std::move(ext.graph);
      result.optimized_cost = ext.cost;
    }
  } else {
    result.ilp = extract_engine(eg, model, options.ilp);
    result.ok = result.ilp.ok;
    result.extract_stats = result.ilp.stats;
    if (result.ilp.ok) {
      result.optimized = result.ilp.graph;
      result.optimized_cost = result.ilp.cost;
    }
  }
  result.extract_seconds = extract_timer.seconds();

  // The optimizer must never return a graph worse than its input: fall back
  // to the input if extraction found nothing better (can happen when the
  // node limit truncates exploration mid-way).
  if (!result.ok || result.optimized_cost > result.original_cost) {
    Graph g = input;
    g.single_root();
    result.optimized = std::move(g);
    result.optimized_cost = result.original_cost;
    result.ok = true;
  }
  return result;
}

}  // namespace tensat
