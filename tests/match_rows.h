// Decoders from the e-matching VM's match rows (ematch::MatchRows) back to
// the (roots, substitution) tuples the naive oracle produces
// (tests/naive_matcher.h), so the differential tests can compare the two.
// The optimizer never decodes: it reads rows through per-rule columns
// (RuleColumns, checked against the oracle in tests/multi_test.cpp).
#pragma once

#include <vector>

#include "ematch/machine.h"
#include "ematch/program.h"
#include "tests/naive_matcher.h"

namespace tensat::match_rows {

/// The rows of ematch::search(…, prog, …) as (root, substitution) matches.
inline std::vector<PatternMatch> decode(const ematch::MatchRows& rows,
                                        const ematch::Program& prog) {
  std::vector<PatternMatch> out(rows.size());
  for (size_t m = 0; m < rows.size(); ++m) {
    const Id* row = rows.row(m);
    out[m].root = row[0];
    for (size_t k = 0; k < prog.vars.size(); ++k)
      out[m].subst.bind(prog.vars[k].first, row[1 + k]);
  }
  return out;
}

/// The rows of ematch::search_joint(…, prog, …) as (roots, substitution)
/// tuples.
inline std::vector<naive_oracle::JointMatch> decode_joint(
    const ematch::MatchRows& rows, const ematch::Program& prog) {
  const size_t roots = prog.root_regs.size();
  std::vector<naive_oracle::JointMatch> out(rows.size());
  for (size_t m = 0; m < rows.size(); ++m) {
    const Id* row = rows.row(m);
    out[m].roots.assign(row, row + roots);
    for (size_t k = 0; k < prog.vars.size(); ++k)
      out[m].subst.bind(prog.vars[k].first, row[roots + k]);
  }
  return out;
}

}  // namespace tensat::match_rows
