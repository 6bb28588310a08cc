#include "extract/extract.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <queue>

#include "support/check.h"
#include "support/timer.h"

namespace tensat {
namespace {

constexpr double kHuge = std::numeric_limits<double>::infinity();

/// Classes reachable from `root` through unfiltered e-nodes. Canonical ids
/// are dense in [0, num_ids()), so the seen-set is a flat byte array instead
/// of a hash map (this walk fronts every extraction).
std::vector<Id> reachable_classes(const EGraph& eg, Id root) {
  std::vector<Id> order;
  std::vector<Id> stack{eg.find(root)};
  std::vector<char> seen(eg.num_ids(), 0);
  while (!stack.empty()) {
    const Id cls = stack.back();
    stack.pop_back();
    if (seen[cls]) continue;
    seen[cls] = 1;
    order.push_back(cls);
    for (const EClassNode& e : eg.eclass(cls).nodes) {
      if (e.filtered) continue;
      for (Id c : e.node.children) {
        const Id canon = eg.find(c);
        if (!seen[canon]) stack.push_back(canon);
      }
    }
  }
  return order;
}

/// The greedy per-class choice: cheapest best-subtree e-node per class
/// (sharing ignored: a child class listed twice is paid twice). Classes with
/// no finite option are absent.
///
/// Settle-once (Knuth's generalization of Dijkstra). An option's subtree
/// cost is its own cost plus its children's, so with node costs >= 0 (they
/// are runtimes; checked) an option never costs less than any of its
/// children, and classes can be finalized in nondecreasing cost order. Each
/// option counts its unsettled children with multiplicity and is summed
/// exactly once, when its last child settles; the sum lowers its class's
/// tentative cost in a min-heap keyed on (cost, slot), and a class is final
/// when popped. Options are only summed while their class is unsettled, so
/// a summed option's children all settled before its class.
///
/// Choice: per class, the first e-node in class order that was summed and
/// attains the settled cost (within 1e-12). One exists (the option that set
/// the cost), and each chosen child settled before its parent, so the
/// selection is acyclic even where a zero-cost e-node ties a class to an
/// ancestor (a weight merged with transpose(transpose(w))) and comes first.
std::unordered_map<Id, TNode> greedy_selection(const EGraph& eg, const CostModel& model,
                                               const std::vector<Id>& classes) {
  const size_t n = classes.size();
  std::vector<int32_t> slot(eg.num_ids(), -1);
  for (size_t s = 0; s < n; ++s) slot[classes[s]] = static_cast<int32_t>(s);

  // Flattened options in class order: cost + child slots, cached once.
  struct Option {
    const TNode* node;
    double cost;
    uint32_t cls;                             // owning class slot
    uint32_t children_first, children_count;  // into child_slots
  };
  std::vector<Option> options;
  std::vector<uint32_t> child_slots;
  // Class s owns options [class_first[s], class_first[s + 1]).
  std::vector<uint32_t> class_first(n + 1);
  for (size_t s = 0; s < n; ++s) {
    class_first[s] = static_cast<uint32_t>(options.size());
    for (const EClassNode& e : eg.eclass(classes[s]).nodes) {
      if (e.filtered) continue;
      Option o;
      o.node = &e.node;
      o.cost = enode_cost(eg, classes[s], e.node, model);
      TENSAT_CHECK(o.cost >= 0.0, "greedy extraction needs nonnegative node costs, got "
                                      << o.cost << " for " << op_info(e.node.op).name);
      o.cls = static_cast<uint32_t>(s);
      o.children_first = static_cast<uint32_t>(child_slots.size());
      for (Id c : e.node.children)
        child_slots.push_back(static_cast<uint32_t>(slot[eg.find(c)]));
      o.children_count = static_cast<uint32_t>(child_slots.size()) - o.children_first;
      options.push_back(o);
    }
  }
  class_first[n] = static_cast<uint32_t>(options.size());

  // CSR child -> option index, one entry per child occurrence.
  std::vector<uint32_t> users_first(n + 1, 0);
  for (uint32_t c : child_slots) ++users_first[c + 1];
  for (size_t s = 0; s < n; ++s) users_first[s + 1] += users_first[s];
  std::vector<uint32_t> users(child_slots.size());
  std::vector<uint32_t> fill(users_first.begin(), users_first.end() - 1);
  for (uint32_t k = 0; k < options.size(); ++k) {
    const Option& o = options[k];
    for (uint32_t j = o.children_first; j < o.children_first + o.children_count; ++j)
      users[fill[child_slots[j]]++] = k;
  }

  std::vector<double> best(n, kHuge);  // tentative until settled
  std::vector<double> sum(options.size(), kHuge);
  std::vector<uint32_t> pending(options.size());
  std::vector<char> settled(n, 0);
  using Entry = std::pair<double, uint32_t>;  // (cost, slot)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
  auto sum_option = [&](uint32_t k) {
    const Option& o = options[k];
    double total = o.cost;
    for (uint32_t j = o.children_first; j < o.children_first + o.children_count; ++j)
      total += best[child_slots[j]];
    sum[k] = total;
    if (total < best[o.cls]) {
      best[o.cls] = total;
      heap.emplace(total, o.cls);
    }
  };
  for (uint32_t k = 0; k < options.size(); ++k) {
    pending[k] = options[k].children_count;
    if (pending[k] == 0) sum_option(k);
  }
  while (!heap.empty()) {
    const uint32_t s = heap.top().second;
    heap.pop();
    if (settled[s]) continue;  // superseded entry
    settled[s] = 1;
    for (uint32_t j = users_first[s]; j < users_first[s + 1]; ++j) {
      const uint32_t k = users[j];
      if (--pending[k] == 0 && !settled[options[k].cls]) sum_option(k);
    }
  }

  std::unordered_map<Id, TNode> result;
  for (size_t s = 0; s < n; ++s) {
    if (!settled[s]) continue;
    for (uint32_t k = class_first[s]; k < class_first[s + 1]; ++k) {
      if (sum[k] <= best[s] + 1e-12) {
        result.emplace(classes[s], *options[k].node);
        break;
      }
    }
  }
  return result;
}

/// The concrete graph a per-class e-node choice builds from the root class,
/// with its cost. !ok if the selection is cyclic or incomplete, or if a
/// selected e-node fails the concrete shape check of Graph::try_add, which
/// also sets `*unbuildable` (see IlpExtractionResult::unbuildable_selection).
ExtractionResult selected_graph(const EGraph& eg, const CostModel& model,
                                const std::unordered_map<Id, TNode>& selection,
                                bool* unbuildable = nullptr) {
  ExtractionResult result;
  const Id root = eg.root();
  Graph out;
  // Canonical ids are dense in [0, num_ids()): flat arrays replace the old
  // hash-map seen-sets (built: class -> node id in `out`; on_stack guards
  // against cyclic selections).
  std::vector<Id> built(eg.num_ids(), kInvalidId);
  std::vector<char> on_stack(eg.num_ids(), 0);

  // Explicit-stack DFS so deep graphs don't overflow the call stack.
  struct Frame {
    Id cls;
    size_t next_child{0};
  };
  std::vector<Frame> stack{{root}};
  on_stack[root] = 1;
  while (!stack.empty()) {
    Frame& f = stack.back();
    auto sel = selection.find(f.cls);
    if (sel == selection.end()) return result;  // incomplete selection
    const TNode& node = sel->second;
    if (f.next_child < node.children.size()) {
      const Id child = eg.find(node.children[f.next_child++]);
      if (built[child] != kInvalidId) continue;
      if (on_stack[child]) return result;  // cyclic selection
      on_stack[child] = 1;
      stack.push_back(Frame{child});
      continue;
    }
    TNode concrete{node.op, node.num, node.str, {}};
    for (Id c : node.children) concrete.children.push_back(built[eg.find(c)]);
    // try_add: the chosen member can (rarely) fail the concrete shape check
    // when the class-level analysis was a join over disagreeing members.
    auto added = out.try_add(std::move(concrete));
    if (!added.has_value()) {
      if (unbuildable != nullptr) *unbuildable = true;
      return result;
    }
    built[f.cls] = *added;
    on_stack[f.cls] = 0;
    stack.pop_back();
  }
  out.add_root(built[root]);
  result.graph = std::move(out);
  result.graph.single_root();
  result.cost = graph_cost(result.graph, model);
  result.ok = true;
  return result;
}

}  // namespace

ExtractionResult extract_greedy(const EGraph& eg, const CostModel& model) {
  return selected_graph(eg, model,
                        greedy_selection(eg, model, reachable_classes(eg, eg.root())));
}

void stitch_selection(const EGraph& eg, const CostModel& model,
                      const std::unordered_map<Id, TNode>& selection,
                      ExtractionResult greedy, IlpExtractionResult& result) {
  bool unbuildable = false;
  ExtractionResult built = selected_graph(eg, model, selection, &unbuildable);
  if (!built.ok) {
    (unbuildable ? result.unbuildable_selection : result.cyclic_selection) = true;
    if (!greedy.ok) return;
    built = std::move(greedy);
  }
  static_cast<ExtractionResult&>(result) = std::move(built);
  result.stats.gap = relative_gap(result.cost, result.best_bound);
}

IlpExtractionResult extract_ilp(const EGraph& eg, const CostModel& model,
                                const IlpExtractOptions& options) {
  IlpExtractionResult result;
  Timer phase_timer;
  const Id root = eg.root();
  const std::vector<Id> classes = reachable_classes(eg, root);
  result.stats.reach_seconds = phase_timer.seconds();
  result.stats.classes_reachable = classes.size();
  phase_timer.reset();  // everything until solve_milp counts as lp-build

  // Enumerate decision variables: one per unfiltered e-node of a reachable
  // class (filter-list nodes are omitted == pinned to zero).
  struct NodeRef {
    Id cls;
    const TNode* node;
  };
  // Presolve: "free" classes — exactly one choice, zero cost, all children
  // free — never influence the optimization (parameter leaves, weight
  // tensors and the precomputed subgraphs above them). They get no
  // variables; their selection is forced during reconstruction.
  std::unordered_map<Id, bool> free_class;
  {
    bool changed = true;
    while (changed) {
      changed = false;
      for (Id cls : classes) {
        if (free_class[cls]) continue;
        const EClass& ec = eg.eclass(cls);
        const EClassNode* only = nullptr;
        size_t live = 0;
        for (const EClassNode& e : ec.nodes) {
          if (e.filtered) continue;
          ++live;
          only = &e;
        }
        if (live != 1 || eg.find(cls) == root) continue;
        if (enode_cost(eg, cls, only->node, model) != 0.0) continue;
        bool children_free = true;
        for (Id c : only->node.children)
          if (!free_class[eg.find(c)]) children_free = false;
        if (children_free) {
          free_class[cls] = true;
          changed = true;
        }
      }
    }
  }

  std::vector<NodeRef> nodes;
  std::unordered_map<Id, std::vector<int>> class_nodes;  // class -> var indices
  for (Id cls : classes) {
    if (free_class[cls]) continue;
    // Presolve: within a class, an e-node is dominated if another e-node has
    // the same child-class set and no higher cost — swapping them changes
    // neither feasibility nor the objective (all nodes of a class compute
    // the same value). Keep the first-cheapest per child set. Greedy breaks
    // ties the same way (the first e-node in class order attaining the
    // minimum; e-nodes with the same children are eligible together), so its
    // pick survives and the warm start maps — unless greedy paid a repeated
    // child twice (ewadd(c, c) vs relu(c)); that warm start is dropped.
    struct Group {
      size_t node_index;
      double cost;
    };
    std::map<std::vector<Id>, Group> groups;
    const EClass& ec = eg.eclass(cls);
    for (size_t k = 0; k < ec.nodes.size(); ++k) {
      const EClassNode& e = ec.nodes[k];
      if (e.filtered) continue;
      std::vector<Id> key;
      for (Id c : e.node.children) {
        const Id canon = eg.find(c);
        if (std::find(key.begin(), key.end(), canon) == key.end()) key.push_back(canon);
      }
      std::sort(key.begin(), key.end());
      const double cost = enode_cost(eg, cls, e.node, model);
      auto it = groups.find(key);
      if (it == groups.end()) {
        groups.emplace(std::move(key), Group{k, cost});
      } else if (cost < it->second.cost - 1e-12) {
        it->second = Group{k, cost};
      }
    }
    for (const auto& [key, group] : groups) {
      class_nodes[cls].push_back(static_cast<int>(nodes.size()));
      nodes.push_back(NodeRef{cls, &ec.nodes[group.node_index].node});
    }
  }
  result.stats.milp_vars_total = nodes.size();
  result.stats.largest_core_vars = nodes.size();
  result.stats.num_cores = nodes.empty() ? 0 : 1;
  if (nodes.size() > options.max_instance_nodes) {
    result.too_large = true;
    result.timed_out = true;
    return result;
  }
  // Every root e-node filtered: nothing to extract (constraint (2) has no
  // variables). Report infeasible instead of crashing on the empty row.
  if (class_nodes.find(root) == class_nodes.end()) {
    result.milp_status = MilpStatus::kInfeasible;
    return result;
  }

  LinearProgram lp;
  std::vector<bool> integral;
  for (const NodeRef& ref : nodes) {
    lp.add_var(0.0, 1.0, enode_cost(eg, ref.cls, *ref.node, model));
    integral.push_back(true);
  }
  // Topological-order variables t_m (paper constraint (5)).
  std::unordered_map<Id, int> topo_var;
  const double M = static_cast<double>(classes.size());
  if (options.cycle_constraints) {
    for (Id cls : classes) {
      if (free_class[cls]) continue;  // leaf-only subtrees cannot be on a cycle
      const double hi = options.integer_topo_vars ? M - 1.0 : 1.0;
      topo_var[cls] = lp.add_var(0.0, hi, 0.0);
      integral.push_back(options.integer_topo_vars);
    }
  }

  // (2) exactly one root e-node.
  {
    std::vector<std::pair<int, double>> terms;
    for (int i : class_nodes.at(root)) terms.emplace_back(i, 1.0);
    lp.add_row(std::move(terms), 1.0, 1.0);
  }
  // Strengthening: at most one picked node per class. The paper relies on
  // this holding at optima (§5.1); adding it as a constraint preserves an
  // optimum and tightens the LP relaxation dramatically, which is what
  // keeps branch & bound from thrashing on equivalent fractional picks.
  for (const auto& [cls, vars] : class_nodes) {
    if (vars.size() < 2) continue;
    std::vector<std::pair<int, double>> terms;
    for (int i : vars) terms.emplace_back(i, 1.0);
    lp.add_row(std::move(terms), -kInf, 1.0);
  }
  // (3) children covered, aggregated per (parent class, child class):
  //       sum_{i in P with child m} x_i  <=  sum_{j in m} x_j.
  // Given the <=1-per-class rows, this is valid for integer solutions and
  // implies (and tightens) the paper's per-node form x_i <= sum_j x_j.
  // (4) topological order, if requested (per node, as in the paper).
  const double eps = 1.0 / (2.0 * M);
  const double bigA = options.integer_topo_vars ? M : 2.0;
  std::unordered_map<Id, std::vector<int>> child_to_parents;  // per parent class
  for (const auto& [cls, vars] : class_nodes) {
    child_to_parents.clear();
    for (int i : vars) {
      std::vector<Id> children;
      for (Id c : nodes[i].node->children) {
        const Id canon = eg.find(c);
        if (free_class[canon]) continue;  // always satisfiable at zero cost
        if (std::find(children.begin(), children.end(), canon) == children.end())
          children.push_back(canon);
      }
      for (Id m : children) {
        child_to_parents[m].push_back(i);
        if (options.cycle_constraints) {
          // t_g(i) - t_m - A*x_i >= (eps or 1) - A
          const double rhs = (options.integer_topo_vars ? 1.0 : eps) - bigA;
          lp.add_row({{topo_var.at(cls), 1.0}, {topo_var.at(m), -1.0}, {i, -bigA}},
                     rhs, kInf);
        }
      }
    }
    for (const auto& [m, parents] : child_to_parents) {
      std::vector<std::pair<int, double>> terms;
      for (int i : parents) terms.emplace_back(i, 1.0);
      // A child class with every e-node filtered has no variables: the row
      // degenerates to "sum of parents <= 0", pinning those parents to zero
      // (they cannot be covered).
      if (auto it = class_nodes.find(m); it != class_nodes.end())
        for (int j : it->second) terms.emplace_back(j, -1.0);
      lp.add_row(std::move(terms), -kInf, 0.0);
    }
  }

  // Converts a per-class e-node selection into an LP point: x = 1 for the
  // chosen variable of every class the selection actually uses (walking down
  // from the root), topological t values assigned in dependency order.
  // Returns nullopt if the selection misses a needed class or picks a
  // presolved-away node; cyclic selections produce infeasible points that
  // the caller's feasibility check rejects.
  auto selection_to_x = [&](const std::unordered_map<Id, TNode>& sel)
      -> std::optional<std::vector<double>> {
    std::vector<double> x(lp.num_vars(), 0.0);
    std::vector<Id> used_order;  // dependency order (children first)
    std::unordered_map<Id, int8_t> state;
    std::vector<Id> stack{root};
    while (!stack.empty()) {
      const Id cls = stack.back();
      if (state[cls] == 2) {
        stack.pop_back();
        continue;
      }
      auto it = sel.find(cls);
      if (it == sel.end()) return std::nullopt;
      if (state[cls] == 1) {
        state[cls] = 2;
        used_order.push_back(cls);
        stack.pop_back();
        continue;
      }
      state[cls] = 1;
      for (Id c : it->second.children) {
        const Id canon = eg.find(c);
        if (state[canon] == 0) stack.push_back(canon);
      }
    }
    size_t order_index = 0;
    for (Id cls : used_order) {
      if (free_class[cls]) continue;  // no variable; forced selection
      int var = -1;
      const TNode& chosen = sel.at(cls);
      for (int i : class_nodes.at(cls)) {
        if (*nodes[i].node == chosen) {
          var = i;
          break;
        }
      }
      if (var < 0) return std::nullopt;
      x[var] = 1.0;
      if (options.cycle_constraints) {
        const double t = options.integer_topo_vars
                             ? static_cast<double>(order_index)
                             : (static_cast<double>(order_index) + 1.0) / (2.0 * M);
        x[topo_var.at(cls)] = t;
        ++order_index;
      }
    }
    return x;
  };

  // Greedy solution: warm start (incumbent upper bound) plus the fallback
  // returned on timeout, as in the paper.
  const std::unordered_map<Id, TNode> greedy_sel =
      greedy_selection(eg, model, classes);
  ExtractionResult greedy = selected_graph(eg, model, greedy_sel);
  std::optional<std::vector<double>> warm;
  if (greedy.ok) {
    if (auto x = selection_to_x(greedy_sel); x && lp.feasible(*x, 1e-6))
      warm = std::move(x);
  }

  MilpOptions milp_opt;
  milp_opt.time_limit_s = options.time_limit_s;
  milp_opt.rel_gap = options.rel_gap;
  // LP-guided rounding: per class take the variable with the largest
  // fractional value (falling back to greedy for classes the LP zeroes);
  // this is how good incumbents appear long before optimality is proven.
  milp_opt.rounding = [&](const std::vector<double>& xfrac)
      -> std::optional<std::vector<double>> {
    std::unordered_map<Id, TNode> choice;
    for (const auto& [cls, vars] : class_nodes) {
      int best = -1;
      double best_value = 1e-6;
      for (int i : vars) {
        if (xfrac[i] > best_value) {
          best_value = xfrac[i];
          best = i;
        }
      }
      if (best >= 0) {
        choice.emplace(cls, *nodes[best].node);
      } else if (auto it = greedy_sel.find(cls); it != greedy_sel.end()) {
        choice.emplace(cls, it->second);
      }
    }
    for (Id cls : classes) {
      if (!free_class[cls]) continue;
      for (const EClassNode& e : eg.eclass(cls).nodes)
        if (!e.filtered) choice.emplace(cls, e.node);
    }
    return selection_to_x(choice);
  };
  result.stats.lp_build_seconds = phase_timer.seconds();
  phase_timer.reset();
  const MilpResult milp = solve_milp(lp, integral, milp_opt, warm);
  result.stats.solve_seconds = phase_timer.seconds();
  phase_timer.reset();
  result.milp_status = milp.status;
  result.timed_out = milp.timed_out;
  result.solve_seconds = result.stats.solve_seconds;
  result.bb_nodes = milp.nodes_explored;
  result.best_bound = milp.best_bound;
  result.lp_iterations = milp.lp_iterations;
  result.stats.warm_start_hits = milp.warm_start_hits;
  result.stats.refactorizations = milp.refactorizations;

  if (milp.status != MilpStatus::kOptimal && milp.status != MilpStatus::kFeasible) {
    return result;
  }

  // Read the selection and rebuild the graph.
  std::unordered_map<Id, TNode> selection;
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (milp.x[i] > 0.5) {
      // "At most one picked node per class" holds at optima; if several are
      // picked (cost ties), any one is valid — keep the first.
      selection.emplace(nodes[i].cls, *nodes[i].node);
    }
  }
  // Free classes were presolved out: their single zero-cost node is forced.
  for (Id cls : classes) {
    if (!free_class[cls]) continue;
    for (const EClassNode& e : eg.eclass(cls).nodes)
      if (!e.filtered) selection.emplace(cls, e.node);
  }
  stitch_selection(eg, model, selection, std::move(greedy), result);
  result.stats.stitch_seconds = phase_timer.seconds();
  return result;
}

}  // namespace tensat
