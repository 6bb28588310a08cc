#include "rewrite/matcher.h"

#include <unordered_map>

#include "support/check.h"

namespace tensat {

std::vector<PatternMatch> search_pattern(const EGraph& eg, const Graph& pat,
                                         Id pattern_root, const SearchLimits& limits) {
  const ematch::Program prog = ematch::compile_pattern(pat, pattern_root);
  const ematch::MatchRows rows = ematch::search(
      eg, prog, ematch::MatchLimits{limits.max_matches, limits.max_steps});
  std::vector<PatternMatch> matches(rows.size());
  for (size_t m = 0; m < rows.size(); ++m) {
    const Id* row = rows.row(m);
    matches[m].root = row[0];
    for (size_t k = 0; k < prog.vars.size(); ++k)
      matches[m].subst.bind(prog.vars[k].first, row[1 + k]);
  }
  return matches;
}

std::optional<Id> instantiate(EGraph& eg, const Graph& pat, Id root, const Subst& subst) {
  std::unordered_map<Id, Id> memo;  // pattern id -> e-class id
  // Recursive lambda via explicit stack-free recursion (patterns are small).
  std::function<std::optional<Id>(Id)> go = [&](Id pid) -> std::optional<Id> {
    auto it = memo.find(pid);
    if (it != memo.end()) return it->second;
    const TNode& p = pat.node(pid);
    std::optional<Id> result;
    if (p.op == Op::kVar) {
      auto bound = subst.get(p.str);
      TENSAT_CHECK(bound.has_value(), "instantiate: unbound variable ?" << p.str.str());
      result = eg.find(*bound);
    } else {
      TNode node{p.op, p.num, p.str, {}};
      node.children.reserve(p.children.size());
      for (Id c : p.children) {
        auto child = go(c);
        if (!child) return std::nullopt;
        node.children.push_back(*child);
      }
      result = eg.try_add(std::move(node));
      if (!result) return std::nullopt;
    }
    memo.emplace(pid, *result);
    return result;
  };
  return go(root);
}

namespace {

/// Recursive planner over the pattern DAG; `memo` is a flat pattern-id ->
/// planned-id table (kInvalidId = unset; staged ids start at -2 so they
/// never alias the sentinel). No per-call allocation beyond the staged node.
struct Planner {
  NodeBuffer& buf;
  const EGraph& eg;
  const Graph& pat;
  const Subst& subst;
  std::vector<Id>& memo;
  bool failed{false};

  Id go(Id pid) {
    if (memo[pid] != kInvalidId) return memo[pid];
    const TNode& p = pat.node(pid);
    Id result = kInvalidId;
    if (p.op == Op::kVar) {
      auto bound = subst.get(p.str);
      TENSAT_CHECK(bound.has_value(),
                   "plan_instantiate: unbound variable ?" << p.str.str());
      result = eg.find(*bound);
    } else {
      TNode node{p.op, p.num, p.str, {}};
      node.children.reserve(p.children.size());
      for (Id c : p.children) {
        const Id child = go(c);
        if (failed) return kInvalidId;
        node.children.push_back(child);
      }
      auto staged = buf.stage(std::move(node));
      if (!staged.has_value()) {
        failed = true;
        return kInvalidId;
      }
      result = *staged;
    }
    memo[pid] = result;
    return result;
  }
};

}  // namespace

std::optional<Id> plan_instantiate(NodeBuffer& buf, const Graph& pat, Id root,
                                   const Subst& subst, std::vector<Id>& memo) {
  memo.assign(pat.size(), kInvalidId);
  Planner planner{buf, buf.egraph(), pat, subst, memo, false};
  const Id out = planner.go(root);
  if (planner.failed) return std::nullopt;
  return out;
}

std::optional<Id> plan_instantiate(NodeBuffer& buf, const Graph& pat, Id root,
                                   const Subst& subst) {
  std::vector<Id> memo;
  return plan_instantiate(buf, pat, root, subst, memo);
}

}  // namespace tensat
