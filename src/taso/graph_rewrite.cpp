#include "taso/graph_rewrite.h"

#include <unordered_map>

#include "support/check.h"

namespace tensat {
namespace {

/// Matches pattern node `pid` against graph node `gid`, extending `subst`.
/// Returns false (leaving subst possibly partially extended — callers pass
/// copies) if they don't match.
bool match_at(const Graph& g, const Graph& pat, Id pid, Id gid, Subst& subst) {
  const TNode& p = pat.node(pid);
  if (p.op == Op::kVar) return subst.bind(p.str, gid);
  const TNode& n = g.node(gid);
  if (n.op != p.op || n.num != p.num || !(n.str == p.str)) return false;
  for (size_t i = 0; i < p.children.size(); ++i)
    if (!match_at(g, pat, p.children[i], n.children[i], subst)) return false;
  return true;
}

}  // namespace

std::vector<PatternMatch> match_graph_pattern(const Graph& g, const Graph& pat,
                                              Id pat_root) {
  std::vector<PatternMatch> out;
  for (Id gid : g.topo_order()) {
    Subst subst;
    if (match_at(g, pat, pat_root, gid, subst))
      out.push_back(PatternMatch{gid, std::move(subst)});
  }
  return out;
}

std::vector<std::vector<PatternMatch>> find_rule_applications(const Graph& g,
                                                              const Rewrite& rule) {
  std::vector<std::vector<PatternMatch>> result;
  std::vector<std::vector<PatternMatch>> per_root;
  per_root.reserve(rule.src_roots.size());
  for (Id root : rule.src_roots) {
    per_root.push_back(match_graph_pattern(g, rule.pat, root));
    if (per_root.back().empty()) return result;
  }
  if (rule.src_roots.size() == 1) {
    for (auto& m : per_root[0]) result.push_back({std::move(m)});
    return result;
  }
  // Cartesian product with compatibility and distinct-roots checks.
  std::vector<PatternMatch> current;
  std::vector<size_t> idx(per_root.size(), 0);
  // Iterative odometer over the product.
  while (true) {
    // Build and test the current tuple.
    std::optional<Subst> combined = Subst{};
    std::vector<PatternMatch> tuple;
    bool roots_distinct = true;
    for (size_t k = 0; k < per_root.size() && combined; ++k) {
      const PatternMatch& m = per_root[k][idx[k]];
      for (const PatternMatch& prev : tuple)
        if (prev.root == m.root) roots_distinct = false;
      combined = Subst::merged(*combined, m.subst);
      tuple.push_back(m);
    }
    if (combined && roots_distinct) {
      for (size_t k = 0; k < tuple.size(); ++k) tuple[k].subst = *combined;
      result.push_back(std::move(tuple));
    }
    // Advance the odometer.
    size_t k = 0;
    while (k < idx.size()) {
      if (++idx[k] < per_root[k].size()) break;
      idx[k] = 0;
      ++k;
    }
    if (k == idx.size()) break;
  }
  return result;
}

namespace {

/// Copies the subgraph rooted at `id` from `src` into `dst` verbatim.
std::optional<Id> copy_original(const Graph& src, Id id, Graph& dst,
                                std::unordered_map<Id, Id>& memo) {
  auto it = memo.find(id);
  if (it != memo.end()) return it->second;
  const TNode& n = src.node(id);
  TNode out{n.op, n.num, n.str, {}};
  for (Id c : n.children) {
    auto copied = copy_original(src, c, dst, memo);
    if (!copied) return std::nullopt;
    out.children.push_back(*copied);
  }
  auto added = dst.try_add(std::move(out));
  if (added) memo.emplace(id, *added);
  return added;
}

/// Instantiates a target pattern into `dst`; variables resolve to original
/// (un-rewritten) copies of their bound subgraphs.
std::optional<Id> instantiate_target(const Graph& g, const Graph& pat, Id pid,
                                     const Subst& subst, Graph& dst,
                                     std::unordered_map<Id, Id>& orig_memo,
                                     std::unordered_map<Id, Id>& pat_memo) {
  auto it = pat_memo.find(pid);
  if (it != pat_memo.end()) return it->second;
  const TNode& p = pat.node(pid);
  std::optional<Id> result;
  if (p.op == Op::kVar) {
    auto bound = subst.get(p.str);
    TENSAT_CHECK(bound.has_value(), "unbound variable ?" << p.str.str());
    result = copy_original(g, *bound, dst, orig_memo);
  } else {
    TNode out{p.op, p.num, p.str, {}};
    for (Id c : p.children) {
      auto child = instantiate_target(g, pat, c, subst, dst, orig_memo, pat_memo);
      if (!child) return std::nullopt;
      out.children.push_back(*child);
    }
    result = dst.try_add(std::move(out));
  }
  if (result) pat_memo.emplace(pid, *result);
  return result;
}

/// Copies `id` with matched roots redirected to their replacements.
std::optional<Id> copy_rewritten(const Graph& g, Id id, Graph& dst,
                                 const std::unordered_map<Id, Id>& replacement,
                                 std::unordered_map<Id, Id>& memo) {
  auto rep = replacement.find(id);
  if (rep != replacement.end()) return rep->second;
  auto it = memo.find(id);
  if (it != memo.end()) return it->second;
  const TNode& n = g.node(id);
  TNode out{n.op, n.num, n.str, {}};
  for (Id c : n.children) {
    auto copied = copy_rewritten(g, c, dst, replacement, memo);
    if (!copied) return std::nullopt;
    out.children.push_back(*copied);
  }
  auto added = dst.try_add(std::move(out));
  if (added) memo.emplace(id, *added);
  return added;
}

}  // namespace

std::optional<Graph> apply_to_graph(const Graph& g, const Rewrite& rule,
                                    const std::vector<PatternMatch>& matches) {
  TENSAT_CHECK(matches.size() == rule.src_roots.size(),
               "match tuple size mismatch for rule " << rule.name);
  const Subst& subst = matches[0].subst;  // tuples share the combined subst

  if (rule.cond) {
    auto lookup = [&](Symbol var) -> const ValueInfo& {
      auto bound = subst.get(var);
      TENSAT_CHECK(bound.has_value(), "condition references unbound ?" << var.str());
      return g.info(*bound);
    };
    if (!rule.check_cond(lookup)) return std::nullopt;
  }

  Graph out;
  std::unordered_map<Id, Id> orig_memo;
  std::unordered_map<Id, Id> pat_memo;
  std::unordered_map<Id, Id> replacement;
  for (size_t k = 0; k < matches.size(); ++k) {
    auto target = instantiate_target(g, rule.pat, rule.dst_roots[k], subst, out,
                                     orig_memo, pat_memo);
    if (!target) return std::nullopt;  // shape check failed
    // Replacement must compute a tensor of the same shape.
    const ValueInfo& src_info = g.info(matches[k].root);
    const ValueInfo& dst_info = out.info(*target);
    if (src_info.kind != dst_info.kind || src_info.shape != dst_info.shape ||
        src_info.shape2 != dst_info.shape2)
      return std::nullopt;
    replacement.emplace(matches[k].root, *target);
  }

  std::unordered_map<Id, Id> rw_memo;
  std::vector<Id> new_roots;
  for (Id root : g.roots()) {
    auto copied = copy_rewritten(g, root, out, replacement, rw_memo);
    if (!copied) return std::nullopt;
    new_roots.push_back(*copied);
  }
  out.set_roots(std::move(new_roots));
  return out;
}

}  // namespace tensat
