#include "service/fingerprint.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "support/check.h"

namespace tensat {
namespace service {

std::string canonical_form(const Graph& g) {
  const std::vector<Id>& roots = g.roots();
  TENSAT_CHECK(!roots.empty(), "canonical_form: graph has no roots");
  if (roots.size() == 1) return g.canonical_key();
  // canonical_key() renumbers nodes in first-visit DFS order from the roots,
  // which makes it id-relabeling invariant but root-order DEPENDENT (roots
  // are visited and emitted in the order given). Rank the roots by their own
  // single-root canonical serialization first; that order is itself
  // invariant under relabeling, so the combined key becomes root-order
  // invariant too.
  std::vector<std::pair<std::string, Id>> keyed;
  keyed.reserve(roots.size());
  for (const Id& r : roots) keyed.emplace_back(g.canonical_key(span<const Id>(&r, 1)), r);
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<Id> ranked;
  ranked.reserve(keyed.size());
  for (const auto& [key, r] : keyed) ranked.push_back(r);
  return g.canonical_key(ranked);
}

uint64_t fingerprint(const std::string& bytes) {
  // FNV-1a, 64-bit: unseeded on purpose — fingerprints must agree across
  // processes and appear verbatim in logs and bench JSON.
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

uint64_t graph_fingerprint(const Graph& g) { return fingerprint(canonical_form(g)); }

}  // namespace service
}  // namespace tensat
