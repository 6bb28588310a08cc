// Shared test helper: the invariants a rebuilt e-graph keeps, checked by
// brute force. After rebuild():
//
//  * no canonical e-node is stored in two classes, or twice in one class;
//  * lookup() of every stored e-node's canonical form returns its class;
//  * the stored e-nodes, filtered ones included, number num_enodes_total();
//  * the counters num_classes() and num_enodes() equal the walks they
//    replace (canonical classes; stored e-nodes that are not filtered);
//  * after the cycle sweep, the class graph over unfiltered e-nodes is
//    acyclic (checked unless `acyclic` is false).
//
// Used at every iteration boundary the fuzz and pin suites reach
// (cycles_fuzz_test, apply_pipeline_test) and after random merge/rebuild
// interleavings (egraph_property_test).
#pragma once

#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "cycles/cycles.h"
#include "egraph/egraph.h"
#include "lang/op.h"

namespace tensat {

/// One line per violated invariant (at most a few per kind); empty if the
/// e-graph keeps them all.
inline std::string egraph_invariant_violations(const EGraph& eg,
                                               bool acyclic = true) {
  std::ostringstream out;
  const auto describe = [&](const TNode& node) {
    std::ostringstream n;
    n << op_info(node.op).name << '/' << node.num << '/' << node.str.str();
    for (Id c : node.children) n << ' ' << c;
    return n.str();
  };
  size_t stored = 0;
  size_t unfiltered = 0;
  size_t reported = 0;
  std::unordered_map<TNode, Id, TNodeHash> owner;  // canonical e-node -> class
  const std::vector<Id> classes = eg.canonical_classes();
  for (Id cls : classes) {
    for (const EClassNode& e : eg.eclass(cls).nodes) {
      ++stored;
      if (!e.filtered) ++unfiltered;
      const TNode node = eg.canonicalize(e.node);
      const auto [it, fresh] = owner.emplace(node, cls);
      const std::optional<Id> found = eg.lookup(node);
      if (reported >= 8) continue;
      if (!fresh) {
        ++reported;
        if (it->second == cls)
          out << "twice in class " << cls << ": " << describe(node) << "\n";
        else
          out << "in classes " << it->second << " and " << cls << ": "
              << describe(node) << "\n";
      }
      if (!found || *found != cls) {
        ++reported;
        out << "lookup of " << describe(node) << " in class " << cls
            << " returns " << (found ? std::to_string(*found) : "nothing")
            << "\n";
      }
    }
  }
  if (stored != eg.num_enodes_total())
    out << stored << " e-nodes stored, " << eg.num_enodes_total()
        << " in the hash-cons\n";
  if (classes.size() != eg.num_classes())
    out << classes.size() << " canonical classes, num_classes() "
        << eg.num_classes() << "\n";
  if (unfiltered != eg.num_enodes())
    out << unfiltered << " unfiltered e-nodes stored, num_enodes() "
        << eg.num_enodes() << "\n";
  if (acyclic && !is_acyclic(eg)) out << "a cycle over unfiltered e-nodes\n";
  return out.str();
}

}  // namespace tensat
