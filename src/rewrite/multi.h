// Multi-pattern rewrite support (paper §4, Algorithm 1).
//
// Before exploration we canonicalize every source S-expr of every
// multi-pattern rule by renaming its variables in traversal order; patterns
// that differ only by variable names collapse to one canonical pattern. Each
// exploration iteration then runs the single-pattern search once per
// canonical pattern, and each single-pattern rule reads its own variables
// out of the pattern's match rows through columns precomputed here. A
// multi-pattern rule instead finds its full-rule matches with a joint plan:
// the rule's sources compile into a single VM program
// (ematch::compile_joint_pattern) that binds shared variables once and
// prunes incompatible cross-pattern candidates during the search. It
// enumerates exactly the compatible tuples of paper Algorithm 1's
// Cartesian-product join (lines 16-20); tests/joint_ematch_test.cpp checks
// that against the naive matcher, and tests/multi_test.cpp checks every
// rule's columns against it.
#pragma once

#include <string>
#include <vector>

#include "ematch/program.h"
#include "rewrite/matcher.h"
#include "rewrite/rewrite.h"

namespace tensat {

/// A deduplicated canonical source pattern shared by one or more rules,
/// pre-compiled for the e-matching VM (searches reuse the program; the
/// pattern AST is kept for the naive reference matcher and diagnostics).
struct CanonicalPattern {
  Graph pat{GraphKind::kPattern};
  Id root{kInvalidId};
  std::string key;  // canonical S-expr (dedup key)
  ematch::Program program;
};

/// Where one rule reads its bindings in the match rows it consumes
/// (ematch::MatchRows): a single-pattern rule reads the rows of its
/// canonical pattern, a multi-pattern rule those of its own joint program.
/// Either way, columns [0, number of sources) hold the matched root class of
/// each source, in source order.
struct RuleColumns {
  /// Each rule variable (its name in the rule) and the row column holding
  /// its class, in the order the naive matcher binds them: first
  /// occurrence, depth-first, sources in order. Precomputed once, this is
  /// the renaming of canonical variables back to the rule's own (Algorithm
  /// 1 lines 12-15).
  std::vector<std::pair<Symbol, uint32_t>> vars;
};

/// Search plan for a rule set: shared canonical patterns plus, per rule, the
/// canonical pattern of each of its source S-exprs and where its bindings
/// sit in the match rows. Rules are indexed as given.
struct MultiPlan {
  std::vector<CanonicalPattern> patterns;
  /// Per rule: the index into `patterns` of each source S-expr.
  std::vector<std::vector<size_t>> rule_sources;
  /// Per rule: the joint search program over the rule's own source patterns
  /// (original variable names, one kScan-driven root register per source;
  /// see ematch::compile_joint_pattern). Only multi-pattern rules get one —
  /// is_joint() is false for the rest, which search through the shared
  /// canonical patterns above.
  std::vector<ematch::Program> joint_programs;
  /// Per rule: its binding columns in the rows it reads.
  std::vector<RuleColumns> columns;
};

/// Canonicalizes the pattern rooted at `root` of `pat`: variables are renamed
/// to $0, $1, ... in DFS encounter order. Returns the canonical graph/root/key
/// and appends (canonical, original) pairs to `rename`.
CanonicalPattern canonicalize_pattern(const Graph& pat, Id root,
                                      std::vector<std::pair<Symbol, Symbol>>* rename);

/// Builds the shared search plan for `rules` (every rule, single- or
/// multi-pattern; single-pattern rules also benefit from the dedup).
MultiPlan build_multi_plan(const std::vector<Rewrite>& rules);

}  // namespace tensat
