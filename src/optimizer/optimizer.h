// The TENSAT optimizer: exploration (equality saturation with multi-pattern
// rules and cycle filtering) followed by extraction (greedy or ILP).
// Mirrors the paper's §4-§5 pipeline and exposes each phase separately so
// the ablation benchmarks (Tables 4-6) can recombine them.
#pragma once

#include <memory>
#include <vector>

#include "cost/cost.h"
#include "egraph/egraph.h"
#include "ematch/scheduler.h"
#include "extract/engine/engine.h"
#include "extract/extract.h"
#include "lang/graph.h"
#include "rewrite/rules.h"

namespace tensat {

enum class CycleFilterMode {
  kNone,       // rely on ILP cycle constraints instead
  kVanilla,    // full-pass check before every substitution (paper §5.2)
  kEfficient,  // descendants pre-filter + DFS post-pass (Algorithm 2)
};

enum class ExtractorKind { kGreedy, kIlp };

enum class StopReason { kSaturated, kIterLimit, kNodeLimit, kTimeLimit };

struct TensatOptions {
  int k_max = 15;          // exploration iterations (paper k_max)
  int k_multi = 1;         // iterations that apply multi-pattern rules
  size_t node_limit = 20000;  // e-graph size cap (paper N_max = 50000)
  double explore_time_limit_s = 30.0;
  CycleFilterMode cycle_filter = CycleFilterMode::kEfficient;
  ExtractorKind extractor = ExtractorKind::kIlp;
  /// ILP extraction knobs. ILP extraction always runs the engine's staged
  /// pipeline (reductions + SCC decomposition + per-core warm-started
  /// solves, extract/engine/engine.h); the monolithic extract_ilp is a
  /// test oracle, not a mode.
  ExtractEngineOptions ilp;
  /// Rule scheduling (egg's BackoffScheduler): per-rule per-iteration match
  /// budgets with temporary bans for rules that blow them. Replaces the old
  /// hard per-rule application caps; the default budget is high enough that
  /// bans only kick in on genuinely match-explosive rules, and banned rules
  /// always get a final chance before saturation is declared.
  ematch::BackoffOptions backoff{/*match_limit=*/100000, /*ban_length=*/5};
  /// Worker threads for the per-iteration pattern searches (the VM is
  /// read-only over the clean e-graph). 0 (default) = one per hardware
  /// thread. Any value yields identical results: each search is sequential
  /// and fills its own match rows, read in plan order, so threading never
  /// reorders anything. Sweeps whose work estimate is below
  /// ematch::kMinParallelSearchWork (768 candidate root classes) search on
  /// the calling thread: below that, waking workers costs more than it
  /// saves.
  size_t search_threads = 0;
  /// Worker threads for stage 1 of the apply pipeline: per-pending-
  /// application condition checks, cycle pre-filters, and target planning,
  /// all read-only against the e-graph as of the wave's start (stages 1 and
  /// 2 alternate in waves of 4,096 applications; earlier waves have
  /// committed to it, no rebuild since). 0 (default) = one per hardware
  /// thread. Any value yields a bit-identical e-graph: plans are independent
  /// and partitioned into index-based chunks and waves, and the stage-2
  /// commit replays each wave serially in plan order, which fixes the node
  /// insertion and merge order regardless of worker scheduling. Waves with
  /// fewer than 512 applications (kMinParallelPlanWork) plan on the calling
  /// thread: below that, waking workers costs more than it saves.
  size_t apply_threads = 0;
};

/// Cumulative per-rule telemetry across all exploration iterations, indexed
/// parallel to the rules vector handed to run_exploration. Counters are
/// always on (they ride existing per-rule loop boundaries, so the cost is a
/// handful of increments per rule per iteration); this is the table
/// tensat_profile prints and the reward signal a cost-aware scheduler
/// (ROADMAP item 3) consumes. Everything except `seconds` is deterministic —
/// identical for any search/apply thread count (pinned by
/// tests/trace_test.cpp).
struct RuleTelemetry {
  std::string name;
  /// Match tuples enumerated for the rule (compatible combinations for
  /// multi-pattern rules). Truncated at budget+1 on the iteration a budget
  /// blows — the same truncation the apply phase sees.
  size_t matches{0};
  /// Applications queued for the apply pipeline (within budget). Not all
  /// of them need be planned: once a node or time limit trips, the waves
  /// after it are never planned.
  size_t planned{0};
  /// Applications that actually changed the e-graph at commit.
  size_t committed{0};
  /// E-nodes the rule's commits added (hash-cons growth attributed to it).
  size_t nodes_added{0};
  size_t bans{0};    // backoff bans imposed on this rule
  size_t unbans{0};  // bans lifted early by the pre-saturation unban pass
  /// Wall-clock attributed to the rule: its share of each pattern search it
  /// consumes (split evenly among the pattern's active users; joint searches
  /// are wholly its own), plus its match enumeration and commit time.
  /// Stage-1 planning time is not attributable per rule (chunks mix rules);
  /// it includes reading the rule's variables out of its match rows, so
  /// enumeration is only the queueing of row pointers.
  double seconds{0.0};
};

/// One exploration iteration's e-graph growth sample, recorded after the
/// iteration's rebuild and cycle sweep — the timeline that shows where a
/// saturation run blows up. All fields except `seconds` are deterministic
/// across thread counts.
struct IterationTelemetry {
  size_t eclasses{0};
  size_t enodes{0};        // excluding filtered
  size_t enodes_total{0};  // hash-cons size (the paper's #enodes)
  size_t filtered{0};
  size_t matches{0};       // single-pattern matches found this iteration
  size_t applications{0};  // successful applications this iteration
  double seconds{0.0};     // iteration wall time
};

struct ExploreStats {
  int iterations{0};
  StopReason stop{StopReason::kIterLimit};
  size_t enodes{0};        // excluding filtered
  size_t enodes_total{0};  // the paper's #enodes
  size_t eclasses{0};
  size_t filtered{0};
  size_t matches_found{0};
  size_t applications{0};
  /// Combined (full-rule) multi-pattern matches enumerated across all
  /// iterations — the compatible tuples handed to the apply step.
  size_t multi_matches_found{0};
  /// Rule bans imposed by the backoff scheduler across all iterations.
  size_t bans{0};
  /// Pattern searches skipped because every rule using the pattern was
  /// banned (or out of its multi-pattern window).
  size_t searches_skipped{0};
  double seconds{0.0};
  /// Per-phase wall-clock breakdown of `seconds`, accumulated across
  /// iterations, so regressions can be pinned to the dominant phase
  /// (perfbench reports each as a per-layer metric). search = the
  /// parallel pattern/joint searches; apply = match enumeration + the
  /// plan/commit pipeline, including freeing its staging arenas; rebuild =
  /// congruence repair; dmap = descendants-map construction; cycle_sweep =
  /// the post-rebuild cycle filtering pass, split out of apply/rebuild so
  /// the cycle analysis is timed on its own. Each is the summed duration of
  /// its spans — apply of explore/{collect,plan,commit}, the others of
  /// explore/{search,rebuild,dmap,sweep}: one clock (trace::ScopedSpan)
  /// times both.
  double search_seconds{0.0};
  double apply_seconds{0.0};
  double rebuild_seconds{0.0};
  double dmap_seconds{0.0};
  double cycle_sweep_seconds{0.0};
  /// Per-rule telemetry, indexed parallel to the input rules.
  std::vector<RuleTelemetry> rules;
  /// Per-iteration e-graph growth timeline (one entry per executed
  /// iteration, including one truncated by a node/time limit).
  std::vector<IterationTelemetry> growth;
};

/// Cross-call exploration state for a persistent optimization session (the
/// service layer, src/service/): the backoff scheduler and the global
/// iteration clock. Passing one ExplorationSession through successive
/// run_exploration calls on the SAME e-graph makes a perturbed resubmission
/// resume saturation where the previous request stopped instead of
/// restarting. Cycle analysis keeps no state between calls: every iteration
/// builds its descendants map from the e-graph as it stands.
///
/// The iteration clock is the load-bearing part: BackoffScheduler ban
/// timestamps (`banned_until`) are absolute iteration numbers, so replaying
/// them against a per-call counter restarting at 0 would re-impose every
/// expired ban at the start of each resumed call (ban lengths double per
/// ban, so a long-lived session would starve its hottest rules). The
/// session numbers iterations globally: call N resumes at iteration_base =
/// total iterations executed by calls 1..N-1.
struct ExplorationSession {
  /// Created on the first call; ban state persists across calls on the
  /// global iteration clock. The rule count must match on every call.
  std::unique_ptr<ematch::BackoffScheduler> scheduler;
  /// Total iterations executed across all calls: the global clock
  /// scheduler timestamps live on.
  size_t iteration_base{0};
};

/// Runs the exploration phase on a pre-seeded e-graph (root already set).
/// `session`, when non-null, persists scheduler state across calls on the
/// same e-graph (see ExplorationSession); null preserves the one-shot
/// behavior exactly.
ExploreStats run_exploration(EGraph& eg, const std::vector<Rewrite>& rules,
                             const TensatOptions& options,
                             ExplorationSession* session = nullptr);

struct TensatResult {
  bool ok{false};
  Graph optimized;
  double original_cost{0.0};
  double optimized_cost{0.0};
  ExploreStats explore;
  double extract_seconds{0.0};
  /// Per-phase extraction breakdown (reach/reduce/lp-build/solve/stitch plus
  /// reduction and core counters), the extraction analog of ExploreStats'
  /// search/apply/rebuild split. Filled for ILP extraction; zero for greedy
  /// extraction.
  ExtractStats extract_stats;
  /// Populated when extractor == kIlp, except `ilp.graph`: the extracted
  /// graph is moved into `optimized`, so it is not held twice.
  EngineExtractionResult ilp;
};

/// The full pipeline: seed e-graph from `input`, explore, extract.
TensatResult optimize(const Graph& input, const std::vector<Rewrite>& rules,
                      const CostModel& model, const TensatOptions& options = {});

/// The pipeline's tail on an explored e-graph: extraction with
/// `options.extractor`, then the certificate that the result is never
/// worse than `input` (on failure or no gain, `optimized` is `input`,
/// single-rooted). Fills every TensatResult field except `explore`, and
/// `ok` is always true. optimize() and the service's session path both end
/// here.
TensatResult extract_certified(const EGraph& eg, const Graph& input,
                               const CostModel& model,
                               const TensatOptions& options);

/// Seeds an e-graph with `input` (single-rooted via noop if needed).
EGraph seed_egraph(const Graph& input);

}  // namespace tensat
