#include "cycles/cycles.h"

#include <algorithm>
#include <unordered_map>

#include "support/check.h"

namespace tensat {
namespace {

/// Distinct canonical child classes of `cls`'s unfiltered e-nodes.
std::vector<Id> child_classes(const EGraph& eg, Id cls) {
  std::vector<Id> out;
  for (const EClassNode& e : eg.eclass(cls).nodes) {
    if (e.filtered) continue;
    for (Id c : e.node.children) {
      const Id canon = eg.find(c);
      if (std::find(out.begin(), out.end(), canon) == out.end()) out.push_back(canon);
    }
  }
  return out;
}

}  // namespace

DescendantsMap::DescendantsMap(const EGraph& eg) {
  const std::vector<Id> classes = eg.canonical_classes();
  const size_t n = classes.size();
  row_.assign(eg.num_ids(), -1);
  for (size_t r = 0; r < n; ++r) row_[classes[r]] = static_cast<int32_t>(r);
  offsets_.assign(n + 1, 0);
  std::vector<int32_t> last_parent(n, -1);  // dedups a row's children
  for (size_t r = 0; r < n; ++r) {
    for (const EClassNode& e : eg.eclass(classes[r]).nodes) {
      if (e.filtered) continue;
      for (Id c : e.node.children) {
        const int32_t k = row_[eg.find(c)];
        if (last_parent[k] == static_cast<int32_t>(r)) continue;
        last_parent[k] = static_cast<int32_t>(r);
        targets_.push_back(k);
      }
    }
    offsets_[r + 1] = static_cast<uint32_t>(targets_.size());
  }

  // DFS post-order ranks: a row is ranked when its last child is done, so
  // on an acyclic graph every child ranks below its parent. (On a cyclic
  // one, a back edge is skipped like any visited child, and it is the one
  // kind of edge that runs upward.)
  constexpr int32_t kUnvisited = -1;
  constexpr int32_t kOnStack = -2;
  rank_.assign(n, kUnvisited);
  std::vector<std::pair<int32_t, uint32_t>> stack;  // row, next child
  int32_t next_rank = 0;
  for (size_t start = 0; start < n; ++start) {
    if (rank_[start] != kUnvisited) continue;
    rank_[start] = kOnStack;
    stack.emplace_back(static_cast<int32_t>(start), offsets_[start]);
    while (!stack.empty()) {
      auto& [v, next] = stack.back();
      if (next < offsets_[v + 1]) {
        const int32_t c = targets_[next++];
        if (rank_[c] == kUnvisited) {
          rank_[c] = kOnStack;
          stack.emplace_back(c, offsets_[c]);
        }
      } else {
        rank_[v] = next_rank++;
        stack.pop_back();
      }
    }
  }
}

int32_t DescendantsMap::row_of(Id id) const {
  return id >= 0 && static_cast<size_t>(id) < row_.size() ? row_[id] : -1;
}

bool DescendantsMap::reaches(Id from, Id to) const {
  const int32_t f = row_of(from);
  const int32_t t = row_of(to);
  if (f < 0 || t < 0) return false;
  // Edges of an acyclic snapshot run from higher ranks to lower ones.
  const int32_t high = rank_[f];
  const int32_t low = rank_[t];
  if (low >= high) return false;
  // Search the rows ranked in (low, high]: every path from `from` to `to`
  // stays there. `seen` has one bit per rank of that window.
  std::vector<uint64_t> seen((static_cast<size_t>(high - low) + 63) / 64, 0);
  const auto first_visit = [&](int32_t rank) {
    const auto bit = static_cast<size_t>(rank - low - 1);
    const uint64_t mask = 1ull << (bit % 64);
    if (seen[bit / 64] & mask) return false;
    seen[bit / 64] |= mask;
    return true;
  };
  std::vector<int32_t> stack{f};
  first_visit(high);
  while (!stack.empty()) {
    const int32_t r = stack.back();
    stack.pop_back();
    for (uint32_t k = offsets_[r]; k < offsets_[r + 1]; ++k) {
      const int32_t c = targets_[k];
      if (c == t) return true;
      // A child outside the window cannot lead to `to` on an acyclic
      // snapshot (one ranked above `from` only exists behind a back edge).
      const int32_t rank = rank_[c];
      if (rank > low && rank <= high && first_visit(rank)) stack.push_back(c);
    }
  }
  return false;
}

namespace {

/// DFS reachability from `from` to `to` over the class graph.
bool reaches_dfs(const EGraph& eg, Id from, Id to) {
  from = eg.find(from);
  to = eg.find(to);
  std::vector<Id> stack{from};
  std::unordered_map<Id, bool> visited;
  while (!stack.empty()) {
    const Id cur = stack.back();
    stack.pop_back();
    if (cur == to) return true;
    if (visited[cur]) continue;
    visited[cur] = true;
    for (Id c : child_classes(eg, cur)) {
      if (!visited[c]) stack.push_back(c);
    }
  }
  return false;
}

}  // namespace

bool merge_would_create_cycle(const EGraph& eg, Id a, Id b) {
  a = eg.find(a);
  b = eg.find(b);
  if (a == b) return false;
  return reaches_dfs(eg, a, b) || reaches_dfs(eg, b, a);
}

namespace {

/// One e-graph edge: e-node `node_index` of class `cls` (its children are
/// the edge heads).
struct Edge {
  Id cls;
  size_t node_index;
};

/// One DFS pass collecting cycles; each cycle is returned as its edge list.
std::vector<std::vector<Edge>> collect_cycles(const EGraph& eg, size_t max_cycles) {
  std::vector<std::vector<Edge>> cycles;
  std::vector<int8_t> state(eg.num_ids(), 0);  // 0 unvisited, 1 on stack, 2 done

  // Path entry: class, index of the e-node being explored, index of the
  // child within that e-node.
  struct Frame {
    Id cls;
    size_t node_i{0};
    size_t child_i{0};
  };
  std::vector<Frame> path;
  std::vector<size_t> pos_on_path(eg.num_ids(), 0);  // valid while state is 1

  for (Id start : eg.canonical_classes()) {
    if (state[start] != 0) continue;
    path.push_back(Frame{start});
    pos_on_path[start] = 0;
    state[start] = 1;
    while (!path.empty()) {
      Frame& f = path.back();
      const EClass& cls = eg.eclass(f.cls);
      // Advance to the next (node, child) edge.
      bool descended = false;
      while (f.node_i < cls.nodes.size()) {
        const EClassNode& entry = cls.nodes[f.node_i];
        if (entry.filtered || f.child_i >= entry.node.children.size()) {
          ++f.node_i;
          f.child_i = 0;
          continue;
        }
        const Id child = eg.find(entry.node.children[f.child_i]);
        ++f.child_i;
        const int8_t s = state[child];
        if (s == 1) {
          // Back edge: the cycle is the closing edge plus the in-edges of
          // every class on the path strictly after `child`.
          std::vector<Edge> cycle;
          cycle.push_back(Edge{f.cls, f.node_i});
          const size_t from = pos_on_path[child];
          for (size_t i = from + 1; i < path.size(); ++i) {
            // path[i] was entered through path[i-1]'s current e-node.
            cycle.push_back(Edge{path[i - 1].cls, path[i - 1].node_i});
          }
          cycles.push_back(std::move(cycle));
          if (cycles.size() >= max_cycles) return cycles;
        } else if (s == 0) {
          state[child] = 1;
          pos_on_path[child] = path.size();
          path.push_back(Frame{child});
          descended = true;
          break;
        }
      }
      if (descended) continue;
      if (f.node_i >= cls.nodes.size()) {
        state[f.cls] = 2;
        path.pop_back();
      }
    }
  }
  return cycles;
}

}  // namespace

size_t filter_cycles(EGraph& eg) {
  size_t filtered = 0;
  constexpr size_t kMaxCyclesPerPass = 4096;
  while (true) {
    const auto cycles = collect_cycles(eg, kMaxCyclesPerPass);
    if (cycles.empty()) break;
    for (const auto& cycle : cycles) {
      // Resolve only if the cycle is still intact (an earlier resolution in
      // this pass may have already broken it).
      bool intact = true;
      for (const Edge& e : cycle) {
        if (eg.eclass(e.cls).nodes[e.node_index].filtered) {
          intact = false;
          break;
        }
      }
      if (!intact) continue;
      // Filter the most recently added e-node on the cycle (paper §5.2).
      const Edge* last = &cycle[0];
      uint32_t best_stamp = eg.eclass(cycle[0].cls).nodes[cycle[0].node_index].stamp;
      for (const Edge& e : cycle) {
        const uint32_t stamp = eg.eclass(e.cls).nodes[e.node_index].stamp;
        if (stamp > best_stamp) {
          best_stamp = stamp;
          last = &e;
        }
      }
      eg.set_filtered(last->cls, last->node_index);
      ++filtered;
    }
  }
  return filtered;
}

bool is_acyclic(const EGraph& eg) { return collect_cycles(eg, 1).empty(); }

}  // namespace tensat
