#include "extract/extract.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

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
/// (fixpoint; sharing ignored). Classes with no finite option are absent.
///
/// Worklist formulation: a class is re-evaluated only when one of its child
/// classes improves, found through a parents index — the old full-resweep
/// fixpoint re-scanned every e-node of every class per round. Per-node costs
/// and canonical child slots are cached once up front, so each re-evaluation
/// is a flat array scan. Choice ties resolve to the first e-node in class
/// order attaining the minimum, which is also what the resweep converged to.
std::unordered_map<Id, TNode> greedy_selection(const EGraph& eg, const CostModel& model,
                                               const std::vector<Id>& classes) {
  const size_t n = classes.size();
  std::vector<int32_t> slot(eg.num_ids(), -1);
  for (size_t s = 0; s < n; ++s) slot[classes[s]] = static_cast<int32_t>(s);

  // Flattened per-class options: cost + child slots, cached once.
  struct Option {
    const TNode* node;
    double cost;
    uint32_t children_first, children_count;  // into child_slots
  };
  std::vector<Option> options;
  std::vector<uint32_t> child_slots;
  std::vector<std::pair<uint32_t, uint32_t>> class_options(n);  // (first, count)
  std::vector<std::vector<uint32_t>> parents(n);
  for (size_t s = 0; s < n; ++s) {
    class_options[s].first = static_cast<uint32_t>(options.size());
    for (const EClassNode& e : eg.eclass(classes[s]).nodes) {
      if (e.filtered) continue;
      Option o;
      o.node = &e.node;
      o.cost = enode_cost(eg, classes[s], e.node, model);
      o.children_first = static_cast<uint32_t>(child_slots.size());
      for (Id c : e.node.children) {
        const uint32_t cs = static_cast<uint32_t>(slot[eg.find(c)]);
        child_slots.push_back(cs);
        parents[cs].push_back(static_cast<uint32_t>(s));
      }
      o.children_count = static_cast<uint32_t>(child_slots.size()) - o.children_first;
      options.push_back(o);
    }
    class_options[s].second =
        static_cast<uint32_t>(options.size()) - class_options[s].first;
  }
  for (std::vector<uint32_t>& p : parents) {
    std::sort(p.begin(), p.end());
    p.erase(std::unique(p.begin(), p.end()), p.end());
  }

  std::vector<double> best(n, kHuge);
  std::vector<const TNode*> choice(n, nullptr);
  std::vector<char> queued(n, 1);
  // Seed deepest-first: reachable_classes is a root-first DFS and the
  // worklist pops from the back, so pushing in slot order evaluates deep
  // classes before their parents and most classes settle on their first
  // evaluation.
  std::vector<uint32_t> work(n);
  for (size_t s = 0; s < n; ++s) work[s] = static_cast<uint32_t>(s);
  while (!work.empty()) {
    const uint32_t s = work.back();
    work.pop_back();
    queued[s] = 0;
    double new_best = kHuge;
    const TNode* new_choice = nullptr;
    const auto [first, count] = class_options[s];
    for (uint32_t k = first; k < first + count; ++k) {
      const Option& o = options[k];
      double total = o.cost;
      for (uint32_t j = o.children_first; j < o.children_first + o.children_count;
           ++j) {
        const double child_cost = best[child_slots[j]];
        if (child_cost == kHuge) {
          total = kHuge;
          break;
        }
        total += child_cost;
      }
      if (total < new_best - 1e-12) {
        new_best = total;
        new_choice = o.node;
      }
    }
    if (new_best < best[s] - 1e-12) {
      best[s] = new_best;
      choice[s] = new_choice;
      for (uint32_t p : parents[s]) {
        if (!queued[p]) {
          queued[p] = 1;
          work.push_back(p);
        }
      }
    }
  }

  std::unordered_map<Id, TNode> result;
  for (size_t s = 0; s < n; ++s)
    if (choice[s] != nullptr) result.emplace(classes[s], *choice[s]);
  return result;
}

}  // namespace

std::optional<Graph> build_selected_graph(
    const EGraph& eg, Id root, const std::unordered_map<Id, TNode>& selection) {
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
  std::vector<Frame> stack{{eg.find(root)}};
  on_stack[eg.find(root)] = 1;
  while (!stack.empty()) {
    Frame& f = stack.back();
    auto sel = selection.find(f.cls);
    if (sel == selection.end()) return std::nullopt;  // incomplete selection
    const TNode& node = sel->second;
    if (f.next_child < node.children.size()) {
      const Id child = eg.find(node.children[f.next_child++]);
      if (built[child] != kInvalidId) continue;
      if (on_stack[child]) return std::nullopt;  // cyclic selection
      on_stack[child] = 1;
      stack.push_back(Frame{child});
      continue;
    }
    TNode concrete{node.op, node.num, node.str, {}};
    concrete.children.reserve(node.children.size());
    for (Id c : node.children) concrete.children.push_back(built[eg.find(c)]);
    // try_add: the chosen member can (rarely) fail the concrete shape check
    // when the class-level analysis was a join over disagreeing members;
    // treat it like a cyclic selection and let the caller fall back.
    auto added = out.try_add(std::move(concrete));
    if (!added.has_value()) return std::nullopt;
    built[f.cls] = *added;
    on_stack[f.cls] = 0;
    stack.pop_back();
  }
  out.add_root(built[eg.find(root)]);
  return out;
}

ExtractionResult extract_greedy(const EGraph& eg, const CostModel& model) {
  ExtractionResult result;
  const Id root = eg.root();
  const std::vector<Id> classes = reachable_classes(eg, root);
  const auto choice = greedy_selection(eg, model, classes);
  if (!choice.count(root)) return result;  // no finite extraction

  auto graph = build_selected_graph(eg, root, choice);
  if (!graph.has_value()) return result;
  result.graph = std::move(*graph);
  result.graph.single_root();
  result.cost = graph_cost(result.graph, model);
  result.ok = true;
  return result;
}

IlpExtractionResult extract_ilp(const EGraph& eg, const CostModel& model,
                                const IlpExtractOptions& options) {
  IlpExtractionResult result;
  Timer timer;
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
    // the same value). Keep the first-cheapest per child set, which is also
    // what greedy extraction picks (keeps the warm start aligned).
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
  result.num_vars = nodes.size();
  result.stats.milp_vars_total = nodes.size();
  result.stats.largest_core_vars = nodes.size();
  result.stats.num_cores = nodes.empty() ? 0 : 1;
  if (nodes.size() > options.max_instance_nodes) {
    result.too_large = true;
    result.timed_out = true;
    result.solve_seconds = timer.seconds();
    return result;
  }
  // Every root e-node filtered: nothing to extract (constraint (2) has no
  // variables). Report infeasible instead of crashing on the empty row.
  if (class_nodes.find(root) == class_nodes.end()) {
    result.milp_status = MilpStatus::kInfeasible;
    result.solve_seconds = timer.seconds();
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
  result.num_rows = lp.rows.size();

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
  ExtractionResult greedy = extract_greedy(eg, model);
  const std::unordered_map<Id, TNode> greedy_sel =
      greedy_selection(eg, model, classes);
  std::optional<std::vector<double>> warm;
  if (greedy.ok && greedy_sel.count(root) > 0) {
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
  result.solve_seconds = milp.seconds;
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
  auto graph = build_selected_graph(eg, root, selection);
  if (!graph.has_value()) {
    result.cyclic_selection = true;
    result.stats.stitch_seconds = phase_timer.seconds();
    // Fall back to the greedy graph if we have one (mirrors "use the best
    // known feasible solution").
    if (greedy.ok) {
      result.graph = std::move(greedy.graph);
      result.cost = greedy.cost;
      result.ok = true;
      result.stats.gap =
          std::max(0.0, (result.cost - result.best_bound) /
                            std::max(std::abs(result.cost), 1e-12));
    }
    return result;
  }
  result.graph = std::move(*graph);
  result.graph.single_root();
  result.cost = graph_cost(result.graph, model);
  result.ok = true;
  result.stats.gap = std::max(0.0, (result.cost - result.best_bound) /
                                       std::max(std::abs(result.cost), 1e-12));
  result.stats.stitch_seconds = phase_timer.seconds();
  return result;
}

}  // namespace tensat
