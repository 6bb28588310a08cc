// Disjoint-set forest with path halving and union by size.
#pragma once

#include <cstdint>
#include <numeric>
#include <vector>

#include "lang/node.h"

namespace tensat {

class UnionFind {
 public:
  /// Creates a fresh singleton set; returns its id.
  Id make_set() {
    parent_.push_back(static_cast<Id>(parent_.size()));
    size_.push_back(1);
    return parent_.back();
  }

  [[nodiscard]] size_t size() const { return parent_.size(); }

  /// Path-halving find. The halving write is skipped when it would not
  /// change anything, so on a fully compressed forest (see compress_all)
  /// find() is a pure read — concurrent finds from the parallel pattern
  /// search are then race-free.
  Id find(Id x) const {
    while (parent_[x] != x) {
      const Id p = parent_[x];
      const Id gp = parent_[p];
      if (p != gp) parent_[x] = gp;
      x = gp;
    }
    return x;
  }

  /// Points every element directly at its root. Until the next unite(),
  /// find() performs no writes, which makes concurrent lookups safe; called
  /// by EGraph::rebuild() so searches on a clean e-graph are read-only, and
  /// by EGraph::compress_finds() between the apply pipeline's waves.
  void compress_all() {
    for (Id x = 0; x < static_cast<Id>(parent_.size()); ++x) parent_[x] = find(x);
  }

  /// Unions the sets of a and b; returns the new representative.
  Id unite(Id a, Id b) {
    a = find(a);
    b = find(b);
    if (a == b) return a;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
    return a;
  }

 private:
  mutable std::vector<Id> parent_;
  std::vector<uint32_t> size_;
};

}  // namespace tensat
