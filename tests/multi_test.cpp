#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "ematch/machine.h"
#include "models/models.h"
#include "optimizer/optimizer.h"
#include "rewrite/multi.h"
#include "rewrite/rules.h"
#include "support/check.h"
#include "tests/naive_matcher.h"

namespace tensat {
namespace {

TEST(Multi, CanonicalizationRenamesInTraversalOrder) {
  Graph pat(GraphKind::kPattern);
  const Id root = parse_into(pat, "(ewadd ?foo (ewmul ?bar ?foo))");
  std::vector<std::pair<Symbol, Symbol>> rename;
  const CanonicalPattern canon = canonicalize_pattern(pat, root, &rename);
  EXPECT_EQ(canon.key, "(ewadd ?$0 (ewmul ?$1 ?$0))");
  ASSERT_EQ(rename.size(), 2u);
  EXPECT_EQ(rename[0].first.str(), "$0");
  EXPECT_EQ(rename[0].second.str(), "foo");
  EXPECT_EQ(rename[1].second.str(), "bar");
}

TEST(Multi, AlphaEquivalentPatternsShareCanonicalForm) {
  Graph p1(GraphKind::kPattern), p2(GraphKind::kPattern);
  const Id r1 = parse_into(p1, "(matmul ?act ?a ?b)");
  const Id r2 = parse_into(p2, "(matmul ?mode ?x ?y)");
  EXPECT_EQ(canonicalize_pattern(p1, r1, nullptr).key,
            canonicalize_pattern(p2, r2, nullptr).key);
}

TEST(Multi, DistinctStructuresDiffer) {
  Graph p1(GraphKind::kPattern), p2(GraphKind::kPattern);
  const Id r1 = parse_into(p1, "(matmul ?act ?a ?b)");
  const Id r2 = parse_into(p2, "(matmul ?act ?a ?a)");
  EXPECT_NE(canonicalize_pattern(p1, r1, nullptr).key,
            canonicalize_pattern(p2, r2, nullptr).key);
}

TEST(Multi, PlanDeduplicatesAcrossRules) {
  // The two multi-pattern matmul rules share the canonical source pattern
  // (matmul ?act ?a ?b) — the plan must search it once.
  std::vector<Rewrite> rules;
  rules.push_back(make_rewrite("r1", "(matmul ?act ?a ?b) (matmul ?act ?a ?c)",
                               "(matmul ?act ?a ?b) (matmul ?act ?a ?c)"));
  rules.push_back(make_rewrite("r2", "(matmul ?m ?x ?w) (matmul ?m ?y ?w)",
                               "(matmul ?m ?x ?w) (matmul ?m ?y ?w)"));
  const MultiPlan plan = build_multi_plan(rules);
  EXPECT_EQ(plan.patterns.size(), 1u);  // all four sources are alpha-equivalent
  EXPECT_EQ(plan.rule_sources[0].size(), 2u);
  EXPECT_EQ(plan.rule_sources[1].size(), 2u);
}

TEST(Multi, DefaultRulesPlanIsShared) {
  const auto& rules = default_rules();
  const MultiPlan plan = build_multi_plan(rules);
  size_t total_sources = 0;
  for (const auto& s : plan.rule_sources) total_sources += s.size();
  EXPECT_GT(total_sources, plan.patterns.size());  // dedup happened
}

/// One match as "roots | var=class ..." with the pairs in binding order.
std::string match_line(const std::vector<Id>& roots,
                       const std::vector<std::pair<Symbol, Id>>& bindings) {
  std::ostringstream os;
  for (Id root : roots) os << root << ",";
  os << " |";
  for (const auto& [var, cls] : bindings) os << " " << var.str() << "=" << cls;
  return os.str();
}

/// The VM and the oracle enumerate matches in different orders; compare the
/// match multisets, each match's pairs still in binding order.
std::vector<std::string> sorted(std::vector<std::string> lines) {
  std::sort(lines.begin(), lines.end());
  return lines;
}

TEST(Multi, RuleColumnsReadTheNaiveMatchersBindings) {
  // Every rule's columns, read from the rows of the search it consumes,
  // must give the naive matcher's substitution renamed to the rule's own
  // variables: the same pairs in the same order. For multi-pattern rules
  // the oracle is the Cartesian-product join of the per-source naive match
  // sets; for single-pattern rules it is the canonical pattern's naive
  // matches renamed back through canonicalize_pattern's mapping.
  const auto& rules = default_rules();
  const MultiPlan plan = build_multi_plan(rules);
  ematch::MatchLimits unlimited;
  unlimited.max_matches = 0;
  unlimited.max_steps = 0;
  size_t single_rows = 0;
  size_t joint_rows = 0;
  for (const ModelInfo& m : tiny_models()) {
    EGraph eg = seed_egraph(m.graph);
    TensatOptions opt;
    opt.k_max = 2;
    opt.node_limit = 1500;
    run_exploration(eg, rules, opt);
    for (size_t r = 0; r < rules.size(); ++r) {
      const Rewrite& rule = rules[r];
      const ematch::MatchRows rows =
          rule.is_multi()
              ? ematch::search_joint(eg, plan.joint_programs[r], unlimited)
              : ematch::search(eg, plan.patterns[plan.rule_sources[r][0]].program,
                               unlimited);
      (rule.is_multi() ? joint_rows : single_rows) += rows.size();
      std::vector<std::string> through_columns;
      for (size_t i = 0; i < rows.size(); ++i) {
        const Id* row = rows.row(i);
        std::vector<std::pair<Symbol, Id>> bindings;
        for (const auto& [var, column] : plan.columns[r].vars)
          bindings.emplace_back(var, row[column]);
        through_columns.push_back(
            match_line({row, row + rule.src_roots.size()}, bindings));
      }

      std::vector<std::string> oracle;
      if (rule.is_multi()) {
        std::vector<std::vector<PatternMatch>> per_source;
        for (Id src : rule.src_roots)
          per_source.push_back(naive_oracle::search_pattern_naive(eg, rule.pat, src));
        for (const auto& jm : naive_oracle::cartesian_join(per_source))
          oracle.push_back(match_line(jm.roots, jm.subst.bindings()));
      } else {
        std::vector<std::pair<Symbol, Symbol>> rename;  // (canonical, original)
        const CanonicalPattern cp =
            canonicalize_pattern(rule.pat, rule.src_roots[0], &rename);
        for (const PatternMatch& pm :
             naive_oracle::search_pattern_naive(eg, cp.pat, cp.root)) {
          std::vector<std::pair<Symbol, Id>> bindings;
          for (const auto& [canon, cls] : pm.subst.bindings()) {
            const auto named = std::find_if(
                rename.begin(), rename.end(),
                [&](const auto& pair) { return pair.first == canon; });
            ASSERT_NE(named, rename.end()) << rule.name;
            bindings.emplace_back(named->second, cls);
          }
          oracle.push_back(match_line({pm.root}, bindings));
        }
      }
      EXPECT_EQ(sorted(through_columns), sorted(oracle))
          << m.name << ": rule " << rule.name;
    }
  }
  EXPECT_GT(single_rows, 0u);
  EXPECT_GT(joint_rows, 0u);
}

TEST(Multi, SubstMergeCompatibility) {
  Subst a, b;
  a.bind(Symbol("x"), 1);
  b.bind(Symbol("x"), 1);
  b.bind(Symbol("y"), 2);
  auto merged = Subst::merged(a, b);
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(merged->get(Symbol("y")), std::optional<Id>(2));
  Subst c;
  c.bind(Symbol("x"), 3);  // conflicts
  EXPECT_FALSE(Subst::merged(a, c).has_value());
}

TEST(Multi, RewriteFactoryValidations) {
  EXPECT_THROW(make_rewrite("bad-count", "(relu ?x) (tanh ?x)", "(relu ?x)"), Error);
  EXPECT_THROW(make_rewrite("unbound", "(relu ?x)", "(ewadd ?x ?y)"), Error);
  const Rewrite ok = make_rewrite("ok", "(relu ?x)", "(relu ?x)");
  EXPECT_FALSE(ok.is_multi());
  const Rewrite multi = make_rewrite("m", "(relu ?x) (tanh ?x)", "(relu ?x) (tanh ?x)");
  EXPECT_TRUE(multi.is_multi());
}

TEST(Multi, DefaultRulesWellFormed) {
  const auto& rules = default_rules();
  EXPECT_GE(rules.size(), 50u);
  size_t multi = 0;
  for (const Rewrite& r : rules) {
    EXPECT_FALSE(r.name.empty());
    EXPECT_EQ(r.src_roots.size(), r.dst_roots.size());
    if (r.is_multi()) ++multi;
  }
  EXPECT_GE(multi, 4u);  // the paper's multi-pattern rules are present
}

}  // namespace
}  // namespace tensat
