#include "rewrite/multi.h"

#include <algorithm>
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
  plan.columns.resize(rules.size());
  for (size_t r = 0; r < rules.size(); ++r) {
    // (canonical, original) variable names of the rule's last source; only
    // read for single-pattern rules, which have exactly one.
    std::vector<std::pair<Symbol, Symbol>> rename;
    for (Id src_root : rules[r].src_roots) {
      rename.clear();
      CanonicalPattern canon = canonicalize_pattern(rules[r].pat, src_root, &rename);
      auto [it, inserted] = by_key.emplace(canon.key, plan.patterns.size());
      if (inserted) plan.patterns.push_back(std::move(canon));
      plan.rule_sources[r].push_back(it->second);
    }
    std::vector<std::pair<Symbol, uint32_t>>& columns = plan.columns[r].vars;
    if (rules[r].is_multi()) {
      // Joint rows: one root column per source, then the program's variables.
      const ematch::Program& prog = plan.joint_programs[r] =
          ematch::compile_joint_pattern(rules[r].pat, rules[r].src_roots);
      const auto roots = static_cast<uint32_t>(prog.root_regs.size());
      for (uint32_t k = 0; k < prog.vars.size(); ++k)
        columns.emplace_back(prog.vars[k].first, roots + k);
      continue;
    }
    // Canonical-pattern rows: the root column, then the canonical variables
    // in the program's order; each rule variable reads its canonical
    // counterpart's column.
    const auto& canon_vars = plan.patterns[plan.rule_sources[r][0]].program.vars;
    for (const auto& [canon, original] : rename) {
      const auto at = std::find_if(canon_vars.begin(), canon_vars.end(),
                                   [&](const auto& v) { return v.first == canon; });
      TENSAT_CHECK(at != canon_vars.end(),
                   "build_multi_plan: no register for ?" << canon.str());
      columns.emplace_back(original,
                           static_cast<uint32_t>(1 + (at - canon_vars.begin())));
    }
  }
  return plan;
}

}  // namespace tensat
