// The recursive backtracking e-matcher, the independent oracle for the
// compiled e-matching VM (src/ematch). It shares nothing with the VM but
// the e-graph: no compiled program, no op index, no registers. It walks the
// pattern top-down against every canonical class and extends substitutions
// child by child, so agreement between the two is evidence about the
// compiler and the machine. Semantically identical to ematch::search (same
// matches, same multiplicities, once its rows are decoded by
// tests/match_rows.h); ematch_test compares them pattern by pattern,
// joint_ematch_test joins its per-source match sets with cartesian_join
// below as the oracle of the joint multi-pattern plan, and multi_test reads
// every rule's binding columns against both.
//
// Variables bind canonical e-class ids; filtered e-nodes are treated as
// removed. The e-graph must be clean (rebuilt). No match or step limits:
// the oracle enumerates everything.
#pragma once

#include <optional>
#include <vector>

#include "egraph/egraph.h"
#include "rewrite/subst.h"

namespace tensat::naive_oracle {

class Matcher {
 public:
  Matcher(const EGraph& eg, const Graph& pat) : eg_(eg), pat_(pat) {}

  /// Extends each subst in `in` with matches of pattern node `pid` against
  /// e-class `cls`; appends results to `out`.
  void match_node(Id pid, Id cls, const std::vector<Subst>& in,
                  std::vector<Subst>& out) const {
    cls = eg_.find(cls);
    const TNode& p = pat_.node(pid);
    switch (p.op) {
      case Op::kVar:
        for (const Subst& s : in) {
          Subst next = s;
          if (next.bind(p.str, cls)) out.push_back(std::move(next));
        }
        return;
      case Op::kNum: {
        const ValueInfo& d = eg_.data(cls);
        if (d.kind == VKind::kNum && d.num == p.num)
          out.insert(out.end(), in.begin(), in.end());
        return;
      }
      case Op::kStr: {
        const ValueInfo& d = eg_.data(cls);
        if (d.kind == VKind::kStr && d.str == p.str)
          out.insert(out.end(), in.begin(), in.end());
        return;
      }
      default:
        break;
    }
    // Operator pattern: try every (unfiltered) e-node of the class with the
    // same operator; children constrain the substitution left to right.
    for (const EClassNode& entry : eg_.eclass(cls).nodes) {
      if (entry.filtered || entry.node.op != p.op) continue;
      std::vector<Subst> current = in;
      for (size_t i = 0; i < p.children.size() && !current.empty(); ++i) {
        std::vector<Subst> next;
        match_node(p.children[i], entry.node.children[i], current, next);
        current = std::move(next);
      }
      for (Subst& s : current) out.push_back(std::move(s));
    }
  }

 private:
  const EGraph& eg_;
  const Graph& pat_;
};

/// All matches of the pattern rooted at `pattern_root`, class by class in
/// canonical_classes() order.
inline std::vector<PatternMatch> search_pattern_naive(const EGraph& eg,
                                                      const Graph& pat,
                                                      Id pattern_root) {
  const Matcher m(eg, pat);
  std::vector<PatternMatch> matches;
  for (Id cls : eg.canonical_classes()) {
    std::vector<Subst> found;
    m.match_node(pattern_root, cls, {Subst{}}, found);
    for (Subst& s : found) matches.push_back(PatternMatch{cls, std::move(s)});
  }
  return matches;
}

/// One match of several source patterns: the e-class each source's root
/// matched, in source order, plus the combined substitution.
struct JointMatch {
  std::vector<Id> roots;
  Subst subst;
};

/// The Cartesian-product join of paper Algorithm 1 (lines 16-20): every
/// combination of one match per source list whose substitutions agree on the
/// variables they share, as (roots, merged substitution) tuples.
inline std::vector<JointMatch> cartesian_join(
    const std::vector<std::vector<PatternMatch>>& per_source) {
  std::vector<JointMatch> out;
  for (const std::vector<PatternMatch>& list : per_source)
    if (list.empty()) return out;
  std::vector<size_t> idx(per_source.size(), 0);
  for (;;) {
    JointMatch jm;
    std::optional<Subst> combined = Subst{};
    for (size_t k = 0; k < per_source.size() && combined; ++k) {
      const PatternMatch& m = per_source[k][idx[k]];
      jm.roots.push_back(m.root);
      combined = Subst::merged(*combined, m.subst);
    }
    if (combined.has_value()) {
      jm.subst = std::move(*combined);
      out.push_back(std::move(jm));
    }
    size_t k = 0;  // advance the odometer, source 0 fastest
    for (; k < idx.size(); ++k) {
      if (++idx[k] < per_source[k].size()) break;
      idx[k] = 0;
    }
    if (k == idx.size()) return out;
  }
}

}  // namespace tensat::naive_oracle
