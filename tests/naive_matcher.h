// The recursive backtracking e-matcher, the independent oracle for the
// compiled e-matching VM (src/ematch). It shares nothing with the VM but
// the e-graph: no compiled program, no op index, no registers. It walks the
// pattern top-down against every canonical class and extends substitutions
// child by child, so agreement between the two is evidence about the
// compiler and the machine. Semantically identical to ematch::search (same
// matches, same multiplicities); ematch_test compares them pattern by
// pattern, joint_ematch_test uses it as the per-source oracle of the joint
// multi-pattern plan.
//
// Variables bind canonical e-class ids; filtered e-nodes are treated as
// removed. The e-graph must be clean (rebuilt). No match or step limits:
// the oracle enumerates everything.
#pragma once

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

}  // namespace tensat::naive_oracle
