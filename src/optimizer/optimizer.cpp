#include "optimizer/optimizer.h"

#include <algorithm>
#include <atomic>
#include <optional>

#include "cycles/cycles.h"
#include "rewrite/matcher.h"
#include "rewrite/multi.h"
#include "support/check.h"
#include "support/parallel.h"
#include "support/timer.h"
#include "trace/trace.h"

namespace tensat {
namespace {

/// One pending application: the rule (an index into the rules vector) and
/// its match row in the iteration's search results, read through the rule's
/// RuleColumns. The rows outlive the apply phase, so nothing is copied.
struct Application {
  size_t rule;
  const Id* row;
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

/// Stages 1 and 2 run in waves of this many applications (32 chunks): each
/// wave plans against the e-graph as the earlier waves committed it, then
/// commits, and once a node or time limit trips no later wave is planned.
/// On BERT at N_max 50000 the node-limited iteration queues over 300k
/// applications, and the limit trips after a few percent of them commit;
/// planning them all up front staged ~565k nodes, with ~460 MB of heap in
/// use. Wave boundaries are a pure function of the application index, like
/// the chunks, so the plans stay independent of the worker count.
constexpr size_t kPlanWave = 32 * kPlanChunk;

/// Fewest applications in a wave for which stage 1 fans its chunks out over
/// the pool; smaller waves plan every chunk on the calling thread
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
  Subst subst;              // the planned app's bindings, reused across apps
};

/// Stage-1 result for one pending application: its slice of the chunk's
/// target arena and whether it survived its read-only checks.
struct ApplyPlan {
  uint32_t targets_first{0};
  uint32_t targets_count{0};
  bool viable{false};
};

/// Stage 1 of the apply pipeline (parallel, read-only): reads the rule's
/// bindings out of the match row `row` through its `columns`, evaluates the
/// rule condition on the matched variables' analysis data, the efficient
/// pre-filter (Algorithm 2, lines 3-9: skip the substitution if a matched
/// class is a descendant of, or is, a class we would merge into; `dmap` is
/// the iteration's descendants map under efficient filtering, null
/// otherwise), and plans the target instantiation against the e-graph as of
/// the wave's start: committed by earlier waves, not rebuilt. Writes only
/// into `plan` and `chunk`.
void plan_application(const EGraph& eg, const Rewrite& rule,
                      const RuleColumns& columns, const Id* row, ApplyPlan& plan,
                      PlanChunk& chunk, const DescendantsMap* dmap) {
  Subst& subst = chunk.subst;
  subst.clear();
  for (const auto& [var, column] : columns.vars) subst.bind(var, row[column]);
  if (rule.cond) {
    auto lookup = [&](Symbol var) -> const ValueInfo& {
      auto bound = subst.get(var);
      TENSAT_CHECK(bound.has_value(), "condition references unbound ?" << var.str());
      return eg.data(*bound);
    };
    if (!rule.check_cond(lookup)) return;
  }
  if (dmap != nullptr) {
    // Row columns [0, sources) are the matched source classes.
    for (size_t k = 0; k < rule.src_roots.size(); ++k) {
      const Id a = eg.find(row[k]);
      for (const auto& [var, cls] : subst.bindings()) {
        const Id c = eg.find(cls);
        if (c == a || dmap->reaches(c, a)) return;
      }
    }
  }

  plan.targets_first = static_cast<uint32_t>(chunk.targets.size());
  for (Id dst_root : rule.dst_roots) {
    auto target = plan_instantiate(chunk.buf, rule.pat, dst_root, subst, chunk.memo);
    if (!target.has_value()) {  // shape check failed
      chunk.targets.resize(plan.targets_first);
      return;
    }
    chunk.targets.push_back(*target);
  }
  for (size_t k = 0; k < rule.dst_roots.size(); ++k) {
    if (!merge_sound(eg.data(row[k]),
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
/// other applications collapse here — and merges each target into the
/// source class in the same column of the match row `row`. Returns true if
/// the e-graph changed. `committed` is caller-owned scratch.
bool commit_application(EGraph& eg, const Id* row, const ApplyPlan& plan,
                        PlanChunk& chunk, CycleFilterMode mode,
                        std::vector<Id>& committed) {
  committed.clear();
  for (uint32_t k = 0; k < plan.targets_count; ++k) {
    auto id = chunk.buf.commit(eg, chunk.targets[plan.targets_first + k]);
    if (!id.has_value()) return false;  // commit-time shape check failed
    committed.push_back(*id);
  }
  // Re-verify merge soundness on the live analysis data: commits earlier in
  // the wave can have joined analysis values (e.g. cleared a concat
  // history) since the plan compared against the wave's snapshot.
  for (size_t k = 0; k < committed.size(); ++k)
    if (!merge_sound(eg.data(row[k]), eg.data(committed[k])))
      return false;
  bool changed = false;
  for (size_t k = 0; k < committed.size(); ++k) {
    const Id src = eg.find(row[k]);
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

/// The body of run_exploration, inside its `explore` span: `clock` is that
/// span, which the time limit reads.
void explore(EGraph& eg, const std::vector<Rewrite>& rules,
             const TensatOptions& options, ExplorationSession* session,
             const trace::ScopedSpan& clock, ExploreStats& stats) {
  // Stage-1 planners call this concurrently; the span's clock is a const read.
  const auto out_of_time = [&] {
    return clock.elapsed_seconds() > options.explore_time_limit_s;
  };
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
    for (size_t p : plan.rule_sources[r]) pattern_users[p].push_back(r);
  }

  eg.rebuild();
  for (int iter = 0; iter < options.k_max; ++iter) {
    if (out_of_time()) {
      stats.stop = StopReason::kTimeLimit;
      break;
    }
    if (eg.num_enodes_total() >= options.node_limit) {
      stats.stop = StopReason::kNodeLimit;
      break;
    }
    // The iteration's span times its growth sample (arg = the iteration).
    stats.growth.emplace_back();
    const trace::ScopedSpan iter_span("explore/iteration",
                                      stats.growth.back().seconds, iter);
    const size_t matches_before_iter = stats.matches_found;
    const size_t applications_before_iter = stats.applications;
    const uint64_t version_before = eg.version();
    stats.iterations = iter + 1;

    auto rule_active = [&](size_t r) {
      if (scheduler.is_banned(r, iter_base + static_cast<size_t>(iter)))
        return false;
      return !(rules[r].is_multi() && iter >= options.k_multi);
    };

    // The descendants map for the pre-filter, built once per iteration
    // (Algorithm 2 line 3) and immutable afterwards, so stage-1 workers
    // share it read-only.
    std::optional<DescendantsMap> dmap;
    if (options.cycle_filter == CycleFilterMode::kEfficient) {
      const trace::ScopedSpan dmap_span("explore/dmap", stats.dmap_seconds);
      dmap.emplace(eg);
    }

    // SEARCH: all canonical patterns with at least one active consumer, once
    // each (Algorithm 1 line 10), plus one joint search per active
    // multi-pattern rule. All searches are read-only over the clean e-graph,
    // so they fan out across the worker pool; results land in per-task slots
    // and are identical for any thread count.
    std::vector<ematch::MatchRows> rows(plan.patterns.size());
    std::vector<ematch::MatchRows> joint_rows(rules.size());
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
    // A sweep too small to repay waking the pool runs on the calling
    // thread (identical results either way — only the dispatch changes).
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
    // Per-task wall time, the duration of the task's span on whichever lane
    // runs it (arg = the pattern index, or the rule index of a joint
    // search), written to its own slot (parallel_for's join publishes it)
    // and distributed to the charged rules serially below.
    std::vector<double> task_seconds(tasks.size(), 0.0);
    {
      const trace::ScopedSpan search_span("explore/search",
                                          stats.search_seconds);
      parallel_for(tasks.size(), search_threads, [&](size_t t) {
        const SearchTask& task = tasks[t];
        const trace::ScopedSpan task_span(
            task.joint ? "ematch/search_joint" : "ematch/search",
            task_seconds[t], static_cast<int64_t>(task.index));
        if (task.joint)
          joint_rows[task.index] =
              ematch::search_joint(eg, plan.joint_programs[task.index], task.limits);
        else
          rows[task.index] = ematch::search(eg, plan.patterns[task.index].program);
      });
    }
    for (size_t t = 0; t < tasks.size(); ++t) {
      const std::vector<size_t>& charged = tasks[t].charged_rules;
      const double share = task_seconds[t] / static_cast<double>(charged.size());
      for (size_t r : charged) stats.rules[r].seconds += share;
    }
    // Joint matches are credited to multi_matches_found in the collect loop.
    for (const SearchTask& task : tasks)
      if (!task.joint) stats.matches_found += rows[task.index].size();

    // APPLY. The phase is a pipeline (mirroring egg's deferred-invariant
    // design): COLLECT enumerates the pending applications per rule, then
    // stages 1 and 2 alternate in waves of kPlanWave applications — stage 1
    // plans a wave read-only (fans out over apply_threads), stage 2 commits
    // its nodes and merges serially in plan order, the determinism anchor —
    // and stage 3 is the single rebuild below.
    //
    // COLLECT walks rules with multi-pattern rules first: they introduce the
    // merged operators the search is really after, and must not be starved
    // of node budget by the (cheap, plentiful) algebraic rules. Budgets and
    // bans depend only on the match sets, never on apply outcomes, so
    // collection needs no e-graph access at all.
    //
    // apply_seconds is the sum of the collect, plan and commit spans.
    std::vector<Application> apps;
    {
      const trace::ScopedSpan collect_span("explore/collect",
                                           stats.apply_seconds);
      std::vector<size_t> rule_order;
      for (size_t r = 0; r < rules.size(); ++r)
        if (rules[r].is_multi()) rule_order.push_back(r);
      for (size_t r = 0; r < rules.size(); ++r)
        if (!rules[r].is_multi()) rule_order.push_back(r);
      for (size_t r : rule_order) {
        // Enumeration of a huge match set can itself be slow; a coarse
        // per-rule check keeps collect bounded by the time limit (stage 2
        // notices the blown limit and records the stop reason).
        if (out_of_time()) break;
        const Rewrite& rule = rules[r];
        if (!rule_active(r)) continue;
        const SecondsGuard rule_guard(stats.rules[r].seconds);
        const size_t budget = scheduler.match_limit(r);
        // A multi-pattern rule reads its joint search, whose rows are already
        // the compatible combinations with shared variables bound once
        // (Algorithm 1 lines 16-20); a single-pattern rule reads its
        // canonical pattern's rows, renamed through plan.columns in stage 1
        // (lines 12-15).
        const ematch::MatchRows& found_rows =
            rule.is_multi() ? joint_rows[r] : rows[plan.rule_sources[r][0]];
        // Queue each match row until the budget is blown (stop at budget+1:
        // record_matches below imposes the ban).
        size_t found = 0;
        while (found < found_rows.size()) {
          const Id* row = found_rows.row(found);
          ++found;
          ++stats.rules[r].matches;
          if (rule.is_multi()) ++stats.multi_matches_found;
          if (found > budget) break;
          ++stats.rules[r].planned;
          apps.push_back(Application{r, row});
        }
        if (scheduler.record_matches(r, iter_base + static_cast<size_t>(iter),
                                     found))
          ++stats.bans, ++stats.rules[r].bans;
      }
    }

    // STAGES 1-2, one wave of kPlanWave applications at a time. A wave plans
    // against the e-graph as the earlier waves left it: committed, not
    // rebuilt. That is sound because stage 2 re-checks shapes and merge
    // soundness on the live data at commit time; a plan can also see joins
    // that earlier waves made. The waves, like the chunks, are fixed
    // by the application index and commit serially in order, so every
    // wave's snapshot, and so the e-graph, is the same for any thread count.
    std::vector<Id> committed;
    bool hit_node_limit = false;
    bool hit_time_limit = false;
    const auto limit_tripped = [&] {
      hit_node_limit = eg.num_enodes_total() >= options.node_limit;
      hit_time_limit = !hit_node_limit && out_of_time();
      return hit_node_limit || hit_time_limit;
    };
    for (size_t wave = 0; wave < apps.size(); wave += kPlanWave) {
      const size_t wave_end = std::min(wave + kPlanWave, apps.size());
      // Earlier waves' merges can leave find() paths that would halve (a
      // write) under the concurrent planners; point every id at its root.
      // The descendants map stays the iteration's: ids created since answer
      // false, so the pre-filter stays sound, and the sweep after the
      // rebuild catches every cycle it lets through.
      if (wave > 0) eg.compress_finds();

      // STAGE 1 (parallel, read-only): the wave's chunks plan against the
      // e-graph; workers share only the e-graph and the descendants map.
      // Which worker plans which chunk is scheduling-dependent; the chunks
      // and their plans are not.
      const size_t first_chunk = wave / kPlanChunk;
      const size_t num_chunks = (wave_end - wave + kPlanChunk - 1) / kPlanChunk;
      std::vector<PlanChunk> chunks;
      std::vector<ApplyPlan> plans;
      // Rule conditions are arbitrary user callbacks, so planning itself can
      // blow the time limit: every worker re-checks it per application and
      // the abort flag stops the rest of the pool. Un-planned applications
      // simply stay non-viable — stage 2 sees the blown limit immediately
      // and stops the phase. (Node limits need no stage-1 check: planning
      // never grows the e-graph.)
      std::atomic<bool> plan_timed_out{false};
      {
        const trace::ScopedSpan plan_span("explore/plan", stats.apply_seconds);
        chunks.reserve(num_chunks);
        for (size_t c = 0; c < num_chunks; ++c) chunks.emplace_back(eg);
        plans.resize(wave_end - wave);
        const size_t plan_threads =
            wave_end - wave < kMinParallelPlanWork ? 1 : options.apply_threads;
        parallel_for(num_chunks, plan_threads, [&](size_t c) {
          // Per-chunk span on the worker's own lane: the per-thread view of
          // stage-1 occupancy (arg = the chunk's index in the iteration).
          const trace::ScopedSpan chunk_span(
              "apply/plan_chunk", static_cast<int64_t>(first_chunk + c));
          const size_t begin = wave + c * kPlanChunk;
          const size_t end = std::min(begin + kPlanChunk, wave_end);
          for (size_t i = begin; i < end; ++i) {
            if (plan_timed_out.load(std::memory_order_relaxed)) return;
            if (out_of_time()) {
              plan_timed_out.store(true, std::memory_order_relaxed);
              return;
            }
            plan_application(eg, rules[apps[i].rule], plan.columns[apps[i].rule],
                             apps[i].row, plans[i - wave], chunks[c],
                             dmap ? &*dmap : nullptr);
          }
        });
      }

      // STAGE 2 (serial, plan order): commit one application at a time,
      // interleaving inserts and merges. Node and time limits are enforced
      // between applications; tripping either stops the whole apply phase
      // (the stop reason is recorded after the rebuild below).
      const trace::ScopedSpan commit_span("explore/commit", stats.apply_seconds);
      for (size_t i = wave; i < wave_end && !limit_tripped(); ++i) {
        if (!plans[i - wave].viable) continue;
        RuleTelemetry& rt = stats.rules[apps[i].rule];
        const SecondsGuard commit_guard(rt.seconds);
        const size_t nodes_before = eg.num_enodes_total();
        if (commit_application(eg, apps[i].row, plans[i - wave],
                               chunks[(i - wave) / kPlanChunk],
                               options.cycle_filter, committed)) {
          ++stats.applications;
          ++rt.committed;
        }
        rt.nodes_added += eg.num_enodes_total() - nodes_before;
      }
      // Free the wave's staging arenas inside the span, and after the last
      // wave the applications too: on large iterations the teardown is a
      // measurable share of the apply phase. Once a limit has tripped, by
      // now or before the next wave's first commit, no later wave is planned.
      chunks.clear();
      plans.clear();
      if (wave_end == apps.size() || limit_tripped()) {
        apps.clear();
        break;
      }
    }

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
      const trace::ScopedSpan sweep_span("explore/sweep",
                                         stats.cycle_sweep_seconds);
      filter_cycles(eg);
    }

    // Growth timeline: one sample per executed iteration, taken after the
    // sweep so the sizes reflect what the next iteration will search. The
    // counter samples come from this serial context only, so their merged
    // sequences stay deterministic across thread counts.
    {
      IterationTelemetry& g = stats.growth.back();
      g.eclasses = eg.num_classes();
      g.enodes = eg.num_enodes();
      g.enodes_total = eg.num_enodes_total();
      g.filtered = eg.num_filtered();
      g.matches = stats.matches_found - matches_before_iter;
      g.applications = stats.applications - applications_before_iter;
      trace::counter("egraph/classes", static_cast<int64_t>(g.eclasses));
      trace::counter("egraph/enodes", static_cast<int64_t>(g.enodes));
      trace::counter("egraph/hashcons", static_cast<int64_t>(g.enodes_total));
      trace::counter("egraph/filtered", static_cast<int64_t>(g.filtered));
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
  // Advance the session's global iteration clock so the next run_exploration
  // call interprets the persisted scheduler's absolute ban deadlines
  // correctly (its local `iter` restarts at 0).
  if (session != nullptr)
    session->iteration_base += static_cast<size_t>(stats.iterations);
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

ExploreStats run_exploration(EGraph& eg, const std::vector<Rewrite>& rules,
                             const TensatOptions& options,
                             ExplorationSession* session) {
  ExploreStats stats;
  {
    // The span closes after explore()'s locals, the rule plan among them,
    // are torn down, and its duration is stats.seconds.
    const trace::ScopedSpan explore_span("explore", stats.seconds);
    explore(eg, rules, options, session, explore_span, stats);
  }
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

  {
    const trace::ScopedSpan extract_span("extract", result.extract_seconds);
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
      if (result.ilp.ok) {
        result.optimized = std::move(result.ilp.graph);
        result.optimized_cost = result.ilp.cost;
      }
    }
  }

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
