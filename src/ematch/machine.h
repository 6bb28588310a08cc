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
/// to the number of VM entry points a sweep will try, which is what waking
/// pool workers must amortize against.
size_t search_work_estimate(const EGraph& eg,
                            const std::vector<const Program*>& progs);

/// Minimum search_work_estimate for which run_exploration dispatches an
/// iteration's searches to the worker pool. Below it the sweep runs on the
/// calling thread, where waking workers would cost more than it saves.
/// Results are identical either way — this is purely a dispatch decision.
///
/// Measured break-even on a 4-core x86 host: the median of 40 interleaved
/// explorations at search_threads 1 and 4 (floor forced to 0), per
/// iteration, over every iteration of the seven Table-1 models at k_max 8,
/// node limit 900 and at k_max 15, k_multi 2, node limit 50000, plus
/// BERT(2,32,128); three runs, 267 iteration readings. Below 768 the pool
/// lost in 43 of 54 readings (0.46-1.63x, median 0.80x); from 768 to 2047
/// it won at a median 1.23x (17 of 72 lost), and from 2048 up at a median
/// 1.79x (3 of 141 lost). Of the floors tried (256 to 1024), 768 gave the
/// least summed search time.
constexpr size_t kMinParallelSearchWork = 768;

}  // namespace tensat::ematch
