// E-matching and instantiation for single patterns: search_pattern finds
// every way a pattern embeds in the e-graph (the "existing efficient search
// routine for single-pattern rewrites" that Algorithm 1 builds on), and
// instantiate / plan_instantiate build a rule's target under a match.
//
// search_pattern compiles the pattern and runs it on the register VM of
// src/ematch (op-indexed candidate selection, flat instruction dispatch),
// the one matcher in src/. Its differential oracle, a recursive
// backtracker, lives in tests/naive_matcher.h.
#pragma once

#include <vector>

#include "egraph/egraph.h"
#include "ematch/machine.h"
#include "rewrite/rewrite.h"
#include "rewrite/subst.h"

namespace tensat {

struct SearchLimits {
  /// Cap on total substitutions returned by one search (safety valve against
  /// pathological pattern blowup). 0 = unlimited.
  size_t max_matches = 200000;
  /// Cap on matcher work (match steps / e-nodes tried) per search.
  /// Backtracking can explode on dense e-classes even when few matches
  /// result; the search returns what it has when the budget runs out.
  /// 0 = unlimited.
  size_t max_steps = 2000000;
};

/// All matches of the pattern rooted at `pattern_root` anywhere in the
/// e-graph. Variables bind canonical e-class ids; filtered e-nodes are
/// treated as removed. The e-graph must be clean (rebuilt). Compiles the
/// pattern, runs the ematch VM and decodes its match rows; callers searching
/// the same pattern repeatedly should compile once and read the rows of
/// ematch::search directly.
std::vector<PatternMatch> search_pattern(const EGraph& eg, const Graph& pat,
                                         Id pattern_root,
                                         const SearchLimits& limits = {});

/// Instantiates the pattern rooted at `root` into the e-graph under `subst`.
/// Returns the resulting e-class, or nullopt if any new node fails the shape
/// check (the paper's shape-checking gate on rewrites).
///
/// It mutates the e-graph node by node, so a failing node leaves the nodes
/// added before it in place. The exploration loop uses the all-or-nothing
/// plan/commit split below instead; for a target that passes, the two
/// produce identical e-graphs (tests/apply_pipeline_test.cpp).
std::optional<Id> instantiate(EGraph& eg, const Graph& pat, Id root, const Subst& subst);

/// The plan half of instantiate(): shape-checks and hash-conses the target
/// nodes into `buf` against buf.egraph() (which must be clean) WITHOUT
/// mutating the e-graph. Returns the target id — a real e-class id when the
/// whole target already exists, otherwise a staged id (NodeBuffer::is_staged)
/// — or nullopt on shape-check failure. Committing the returned id
/// (NodeBuffer::commit) yields exactly what instantiate() would have
/// produced.
std::optional<Id> plan_instantiate(NodeBuffer& buf, const Graph& pat, Id root,
                                   const Subst& subst);

/// Allocation-light overload for hot loops (the apply pipeline plans every
/// pending application through this): `memo` is the pattern-id -> planned-id
/// scratch, resized and reset internally, reusable across calls.
std::optional<Id> plan_instantiate(NodeBuffer& buf, const Graph& pat, Id root,
                                   const Subst& subst, std::vector<Id>& memo);

}  // namespace tensat
