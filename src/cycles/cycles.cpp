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
  const int n = static_cast<int>(classes.size());
  index_.assign(eg.num_ids(), -1);
  for (int i = 0; i < n; ++i) index_[classes[i]] = i;
  words_ = (static_cast<size_t>(n) + 63) / 64;
  bits_.assign(words_ * n, 0);

  // Reverse-topological DP over the class graph: children first, then
  // desc[c] = union over children (desc[child] | {child}). If the graph has
  // a cycle (possible transiently), back edges contribute nothing — the map
  // under-approximates, which is safe for a pre-filter (the post-processing
  // pass catches what slips through).
  std::vector<int8_t> state(n, 0);  // 0 unvisited, 1 visiting, 2 done
  std::vector<std::pair<int, size_t>> stack;
  std::vector<std::vector<int>> children(n);
  for (int i = 0; i < n; ++i) {
    for (Id c : child_classes(eg, classes[i])) children[i].push_back(index_[c]);
  }
  for (int start = 0; start < n; ++start) {
    if (state[start] != 0) continue;
    stack.emplace_back(start, 0);
    state[start] = 1;
    while (!stack.empty()) {
      auto& [i, next] = stack.back();
      if (next < children[i].size()) {
        const int c = children[i][next++];
        if (state[c] == 0) {
          state[c] = 1;
          stack.emplace_back(c, 0);
        }
        // state 1 = back edge (cycle): skip; state 2 = already folded below.
      } else {
        for (int c : children[i]) {
          if (state[c] != 2) continue;  // skip back edges
          uint64_t* dst = &bits_[static_cast<size_t>(i) * words_];
          const uint64_t* src = &bits_[static_cast<size_t>(c) * words_];
          for (size_t w = 0; w < words_; ++w) dst[w] |= src[w];
          dst[static_cast<size_t>(c) / 64] |= (1ull << (c % 64));
        }
        state[i] = 2;
        stack.pop_back();
      }
    }
  }
}

int32_t DescendantsMap::index_of(Id id) const {
  return id >= 0 && static_cast<size_t>(id) < index_.size() ? index_[id] : -1;
}

bool DescendantsMap::reaches(Id from, Id to) const {
  const int32_t f = index_of(from);
  const int32_t t = index_of(to);
  if (f < 0 || t < 0) return false;
  return (bits_[static_cast<size_t>(f) * words_ + static_cast<size_t>(t) / 64] >>
          (t % 64)) &
         1u;
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
