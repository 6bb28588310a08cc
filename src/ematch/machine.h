// The register-based e-matching VM. Executes a compiled Program (program.h)
// against an e-graph: kBind and kScan instructions are the backtracking
// points (iterating the e-nodes of a class with the right operator, resp.
// the candidate root classes of a joint sub-pattern), everything else is a
// straight-line check. Searches dispatch through the e-graph's op-index
// (EGraph::classes_with_op) so classes that cannot match a pattern root are
// never visited.
//
// Results are bit-for-bit interchangeable with the naive matcher in
// rewrite/matcher.h: same substitutions, same multiplicities, variables
// bound to canonical e-class ids (tests/ematch_test.cpp proves this by
// differential testing across the full rule set).
#pragma once

#include <vector>

#include "egraph/egraph.h"
#include "ematch/program.h"
#include "rewrite/subst.h"

namespace tensat::ematch {

struct MatchLimits {
  /// Cap on substitutions returned by one search. 0 = unlimited.
  size_t max_matches = 200000;
  /// Cap on VM work (e-nodes tried by kBind) per search; the search returns
  /// what it has when the budget runs out. 0 = unlimited.
  size_t max_steps = 2000000;
};

/// All matches of the compiled pattern anywhere in the e-graph. The e-graph
/// must be clean (rebuilt). Filtered e-nodes are treated as removed.
std::vector<PatternMatch> search(const EGraph& eg, const Program& prog,
                                 const MatchLimits& limits = {});

/// Matches of the compiled pattern against one specific e-class.
std::vector<Subst> match_class(const EGraph& eg, const Program& prog, Id class_id,
                               const MatchLimits& limits = {});

/// One match of a joint multi-pattern program: the e-class each sub-pattern
/// root matched (in source order) plus the combined substitution. Exactly the
/// compatible tuples the Cartesian-product join of the per-source match sets
/// would produce (tests/joint_ematch_test.cpp proves this differentially).
struct JointMatch {
  std::vector<Id> roots;
  Subst subst;
};

/// All matches of a joint program (compile_joint_pattern) in the e-graph.
/// Candidate classes for each sub-pattern root come from the op-index; shared
/// variables prune cross-pattern combinations during the search. The e-graph
/// must be clean (rebuilt). `limits.max_steps` counts e-nodes tried by kBind
/// plus root candidates tried by kScan, across all sub-patterns.
std::vector<JointMatch> search_joint(const EGraph& eg, const Program& prog,
                                     const MatchLimits& limits = {});

/// Coarse per-sweep work estimate for a batch of searches: candidate root
/// classes summed over the programs (the op-index bucket for operator roots,
/// every canonical class for leaf roots, each kScan's candidates for joint
/// programs). Cheap — bucket sizes are already maintained — and proportional
/// to the number of VM entry points a sweep will try, which is what thread
/// spawn overhead must amortize against.
size_t search_work_estimate(const EGraph& eg,
                            const std::vector<const Program*>& progs);

/// Minimum search_work_estimate for which search_all dispatches its worker
/// pool. Below it a sweep completes in well under the cost of a dispatch,
/// so the sweep runs on the calling thread. Results are identical either
/// way — this is purely a dispatch decision.
///
/// History: 4096 when dispatching meant spawning std::threads (parallel
/// sweeps of seed-sized graphs measured 0.53-0.93x "speedups" before the
/// gate existed). The persistent
/// work-stealing pool (support/pool.h) cut the dispatch cost from tens of
/// microseconds per worker to about a microsecond total, so the
/// break-even moved down an order of magnitude.
constexpr size_t kMinParallelSearchWork = 256;

/// Searches many programs against one read-only e-graph using up to `threads`
/// workers (0 = hardware concurrency). results[i] always corresponds to
/// progs[i] and is bit-identical to a serial ematch::search(eg, *progs[i]) —
/// worker scheduling cannot reorder or change anything (each program's search
/// is single-threaded and results merge by index), so any thread count
/// produces the same output. Sweeps whose search_work_estimate falls below
/// kMinParallelSearchWork run serially regardless of `threads`. The e-graph
/// must be clean (rebuilt): on a clean e-graph every VM operation, union-find
/// lookups included, is a pure read.
std::vector<std::vector<PatternMatch>> search_all(
    const EGraph& eg, const std::vector<const Program*>& progs, size_t threads,
    const MatchLimits& limits = {});

}  // namespace tensat::ematch
