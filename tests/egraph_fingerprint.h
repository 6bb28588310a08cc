// Shared test helper: a strong, order-stable fingerprint of an explored
// e-graph. Used by the determinism suites and the absolute exploration pins
// (apply_pipeline_test, cycles_fuzz_test, trace_test) — two e-graphs with
// equal fingerprints are identical up to e-node order within a class: same canonical class ids, same analysis data, same e-node sets,
// same filtered flags, and — via each e-node's insertion stamp — the same
// global insertion order. The stamps are what make the determinism tests
// strong: a commit that permuted insertion order across thread counts would
// produce equal node *sets* but different stamps, and the fingerprint would
// catch it.
#pragma once

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "egraph/egraph.h"
#include "lang/op.h"

namespace tensat {

inline std::string fingerprint(const EGraph& eg) {
  std::ostringstream out;
  out << "classes=" << eg.num_classes() << " enodes=" << eg.num_enodes_total()
      << " filtered=" << eg.num_filtered() << " root=" << eg.root() << "\n";
  for (Id cls : eg.canonical_classes()) {
    std::vector<std::string> nodes;
    for (const EClassNode& e : eg.eclass(cls).nodes) {
      std::ostringstream n;
      n << op_info(e.node.op).name << '/' << e.node.num << '/' << e.node.str.str();
      for (Id c : e.node.children) n << ' ' << eg.find(c);
      n << " @" << e.stamp;
      if (e.filtered) n << " [filtered]";
      nodes.push_back(n.str());
    }
    std::sort(nodes.begin(), nodes.end());
    out << cls << ": " << to_string(eg.data(cls));
    for (const std::string& n : nodes) out << " | " << n;
    out << "\n";
  }
  return out.str();
}

}  // namespace tensat
