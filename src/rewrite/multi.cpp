#include "rewrite/multi.h"

#include <unordered_map>

#include "support/check.h"

namespace tensat {
namespace {

/// Copies the subgraph rooted at `id` from `src` into `dst`, renaming
/// variables via `var_map` (filled on first encounter, DFS child order).
Id copy_renamed(const Graph& src, Id id, Graph& dst,
                std::unordered_map<uint32_t, Symbol>& var_map,
                std::vector<std::pair<Symbol, Symbol>>* rename) {
  const TNode& n = src.node(id);
  if (n.op == Op::kVar) {
    auto it = var_map.find(n.str.id());
    if (it == var_map.end()) {
      const Symbol canon("$" + std::to_string(var_map.size()));
      it = var_map.emplace(n.str.id(), canon).first;
      if (rename) rename->emplace_back(canon, n.str);
    }
    return dst.add(make_var(it->second));
  }
  TNode out{n.op, n.num, n.str, {}};
  out.children.reserve(n.children.size());
  for (Id c : n.children)
    out.children.push_back(copy_renamed(src, c, dst, var_map, rename));
  return dst.add(std::move(out));
}

}  // namespace

CanonicalPattern canonicalize_pattern(const Graph& pat, Id root,
                                      std::vector<std::pair<Symbol, Symbol>>* rename) {
  CanonicalPattern out;
  std::unordered_map<uint32_t, Symbol> var_map;
  out.root = copy_renamed(pat, root, out.pat, var_map, rename);
  out.key = out.pat.to_sexpr(out.root);
  out.program = ematch::compile_pattern(out.pat, out.root);
  return out;
}

MultiPlan build_multi_plan(const std::vector<Rewrite>& rules) {
  MultiPlan plan;
  std::unordered_map<std::string, size_t> by_key;
  plan.rule_sources.resize(rules.size());
  plan.joint_programs.resize(rules.size());
  for (size_t r = 0; r < rules.size(); ++r) {
    for (Id src_root : rules[r].src_roots) {
      SourceBinding binding;
      CanonicalPattern canon =
          canonicalize_pattern(rules[r].pat, src_root, &binding.rename);
      auto [it, inserted] = by_key.emplace(canon.key, plan.patterns.size());
      if (inserted) plan.patterns.push_back(std::move(canon));
      binding.pattern_index = it->second;
      plan.rule_sources[r].push_back(std::move(binding));
    }
    if (rules[r].is_multi())
      plan.joint_programs[r] =
          ematch::compile_joint_pattern(rules[r].pat, rules[r].src_roots);
  }
  return plan;
}

Subst decanonicalize(const Subst& subst,
                     const std::vector<std::pair<Symbol, Symbol>>& rename) {
  Subst out;
  for (const auto& [canon, original] : rename) {
    auto bound = subst.get(canon);
    TENSAT_CHECK(bound.has_value(), "decanonicalize: missing binding for " << canon.str());
    TENSAT_CHECK(out.bind(original, *bound), "decanonicalize: conflicting binding");
  }
  return out;
}

}  // namespace tensat
