// The register-based e-matching VM. Executes a compiled Program (program.h)
// against an e-graph: kBind and kScan instructions are the backtracking
// points (iterating the e-nodes of a class with the right operator, resp.
// the candidate root classes of a joint sub-pattern), everything else is a
// straight-line check. Searches dispatch through the e-graph's op-index
// (EGraph::classes_with_op) so classes that cannot match a pattern root are
// never visited.
//
// A search writes each match as a fixed-width row of canonical e-class ids
// into one flat buffer (MatchRows), read straight out of the VM registers:
// no per-match allocation. Decoded, the rows are the naive matcher's match
// set (tests/naive_matcher.h): same substitutions, same multiplicities
// (tests/ematch_test.cpp and tests/joint_ematch_test.cpp prove this by
// differential testing across the full rule set).
#pragma once

#include <vector>

#include "egraph/egraph.h"
#include "ematch/program.h"

namespace tensat::ematch {

struct MatchLimits {
  /// Cap on matches (rows) returned by one search. 0 = unlimited.
  size_t max_matches = 200000;
  /// Cap on VM work (e-nodes tried by kBind) per search; the search returns
  /// what it has when the budget runs out. 0 = unlimited.
  size_t max_steps = 2000000;
};

/// The matches of one search, `width` e-class ids per match, row after row
/// in one buffer. A single-pattern row is [root, prog.vars in order]; a
/// joint row is [prog.root_regs' classes in source order, prog.vars in
/// order]. Variable k of the program is therefore column
/// (number of roots + k) of every row.
struct MatchRows {
  size_t width{0};
  std::vector<Id> ids;

  [[nodiscard]] size_t size() const { return width == 0 ? 0 : ids.size() / width; }
  [[nodiscard]] const Id* row(size_t i) const { return ids.data() + i * width; }
};

/// All matches of the compiled pattern anywhere in the e-graph. The e-graph
/// must be clean (rebuilt). Filtered e-nodes are treated as removed.
MatchRows search(const EGraph& eg, const Program& prog, const MatchLimits& limits = {});

/// All matches of a joint program (compile_joint_pattern) in the e-graph:
/// exactly the compatible tuples the Cartesian-product join of the
/// per-source match sets would produce. Candidate classes for each
/// sub-pattern root come from the op-index; shared variables prune
/// cross-pattern combinations during the search. The e-graph must be clean
/// (rebuilt). `limits.max_steps` counts e-nodes tried by kBind plus root
/// candidates tried by kScan, across all sub-patterns.
MatchRows search_joint(const EGraph& eg, const Program& prog,
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
/// Measured break-even on a 4-core x86 host with the match-row VM: the
/// median of 40 interleaved explorations at search_threads 1 and 4 (floor
/// forced to 0), per iteration, over every iteration of the seven Table-1
/// models at k_max 8, node limit 900 and at k_max 15, k_multi 2, node limit
/// 50000, plus BERT(2,32,128); three runs, 282 iteration readings. Below
/// 768 the pool lost in 50 of 57 readings (0.47-1.43x, median 0.71x); from
/// 768 to 2047 it won at a median 1.19x (11 of 72 lost), and from 2048 up
/// at a median 1.76x (1 of 153 lost). Of the floors tried (256 to 4096),
/// 768 gave the least summed search time, as it did before rows made each
/// candidate cheaper. Service-sized explorations (k_max 4, node limit 500)
/// mostly stay below it: over the 41 graph shapes perfbench's service-mix
/// draws from, 4 of 124 iterations reach it.
constexpr size_t kMinParallelSearchWork = 768;

}  // namespace tensat::ematch
