#include "extract/engine/engine.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <set>
#include <unordered_map>

#include "extract/engine/problem.h"
#include "extract/engine/reduce.h"
#include "extract/engine/scc.h"
#include "ilp/milp.h"
#include "support/hash.h"
#include "support/parallel.h"
#include "support/timer.h"
#include "trace/trace.h"

namespace tensat {

std::optional<MilpWarmCache::Entry> MilpWarmCache::lookup(uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end()) return std::nullopt;
  return it->second;
}

void MilpWarmCache::store(uint64_t key, Entry entry) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = map_.insert_or_assign(key, std::move(entry));
  (void)it;
  if (!inserted) return;  // refresh: key already in the eviction order
  order_.push_back(key);
  while (map_.size() > capacity_ && !order_.empty()) {
    map_.erase(order_.front());
    order_.pop_front();
  }
}

size_t MilpWarmCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

uint64_t milp_formulation_key(const LinearProgram& lp,
                              const std::vector<bool>& integer_mask) {
  size_t seed = 0xb10c5eedcafef00dull;
  auto mix_double = [&seed](double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    hash_combine(seed, static_cast<size_t>(bits));
  };
  hash_combine(seed, static_cast<size_t>(lp.num_vars()));
  for (double c : lp.objective) mix_double(c);
  hash_combine(seed, lp.rows.size());
  for (const LinearProgram::Row& row : lp.rows) {
    hash_combine(seed, row.terms.size());
    for (const auto& [j, a] : row.terms) {
      hash_combine(seed, static_cast<size_t>(j));
      mix_double(a);
    }
    mix_double(row.lo);
    mix_double(row.hi);
  }
  for (bool b : integer_mask) hash_combine(seed, b ? 1u : 0u);
  return seed;
}

namespace {

using exteng::ClassSlot;
using exteng::kInfCost;
using exteng::Option;
using exteng::Problem;

/// One independent MILP ("core"): a connected component of the reduced
/// dependency graph. Assembled serially, solved in parallel, merged in
/// member order. The per-class lookup tables are flat arrays indexed by
/// global class slot (-1 = not in this core), consistent with the
/// subsystem's slot-indexed design — they sit on the rounding callback's
/// per-B&B-node path.
struct Core {
  explicit Core(size_t num_slots)
      : first_var(num_slots, -1),
        var_count(num_slots, 0),
        topo_var(num_slots, -1),
        class_var(num_slots, -1) {}
  std::vector<uint32_t> members;           // class slots, ascending
  std::vector<uint32_t> decision_vars{};   // parallel arrays: owning class...
  std::vector<int32_t> decision_option{};  // ...and option index (-1 = pseudo-leaf)
  LinearProgram lp;
  std::vector<bool> integral;
  std::vector<int32_t> first_var;  // class slot -> first var id, -1 if absent
  std::vector<int32_t> var_count;  // class slot -> its var count
  std::vector<int32_t> topo_var;   // class slot -> t variable, -1 if none
  std::vector<int32_t> class_var;  // class slot -> selection indicator, -1 if none
  std::vector<uint32_t> forced_members;
  std::optional<std::vector<double>> warm;
  MilpResult milp;
};

/// The decision variable of class slot `s`'s DP (greedy) choice in `core`:
/// the pseudo-leaf variable of a collapsed class, else the variable of its
/// dp_inc_choice option; -1 when the class has no finite DP choice.
int dp_choice_var(const Problem& p, const Core& core, uint32_t s) {
  const ClassSlot& c = p.classes[s];
  if (c.collapsed) return core.first_var[s];
  if (c.dp_inc_choice < 0) return -1;
  int var = core.first_var[s];
  for (size_t k = 0; k < c.options.size(); ++k) {
    if (c.options[k].pruned) continue;
    if (static_cast<int32_t>(k) == c.dp_inc_choice) return var;
    ++var;
  }
  return -1;
}

/// Turns a per-class choice (class slot -> decision var) into a full LP
/// point for one core: x = 1 for every class actually needed by the closure
/// from the core's forced classes, with per-SCC topological values assigned
/// in dependency (post-) order. `choose` maps a needed member class to its
/// decision variable, or -1 when it has none (=> nullopt). Mirrors the
/// monolithic selection_to_x.
std::optional<std::vector<double>> closure_to_x(
    const Problem& p, const Core& core, bool cycle_constraints,
    bool integer_topo_vars, const std::vector<int>& scc_size,
    const std::function<int(uint32_t)>& choose) {
  std::vector<double> x(core.lp.num_vars(), 0.0);
  // Iterative DFS with post-order capture; states: 0 unseen, 1 open, 2 done.
  std::vector<int8_t> state(p.classes.size(), 0);
  std::vector<uint32_t> post_order;
  for (uint32_t seed : core.forced_members) {
    if (state[seed] == 2) continue;
    std::vector<uint32_t> stack{seed};
    while (!stack.empty()) {
      const uint32_t s = stack.back();
      if (state[s] != 0) {
        if (state[s] == 1) {
          state[s] = 2;
          post_order.push_back(s);
        }
        stack.pop_back();
        continue;
      }
      const int var = choose(s);
      if (var < 0) return std::nullopt;
      state[s] = 1;
      x[var] = 1.0;
      const ClassSlot& c = p.classes[s];
      const int32_t opt = core.decision_option[var];
      if (opt >= 0) {  // pseudo-leaves have no dependencies
        for (uint32_t child : c.options[opt].children) {
          const ClassSlot& w = p.classes[child];
          if (w.removed || w.interior || w.free || w.forced) continue;
          // A child already open (state 1) means the choice closed a cycle;
          // the point is still cover-feasible, and under cycle constraints
          // the caller's feasibility check rejects it — both matching the
          // monolithic selection_to_x.
          if (state[child] == 0) stack.push_back(child);
        }
      }
    }
  }
  // Selection indicators are determined by their equality rows: s_c = the
  // class's chosen-option mass.
  for (uint32_t s : core.members) {
    if (core.class_var[s] < 0) continue;
    double mass = 0.0;
    const int first = core.first_var[s];
    for (int v = first; v < first + core.var_count[s]; ++v) mass += x[v];
    x[core.class_var[s]] = mass;
  }
  if (cycle_constraints) {
    std::unordered_map<int32_t, int> rank;  // per-SCC running rank
    for (uint32_t s : post_order) {
      const ClassSlot& c = p.classes[s];
      if (!c.cyclic || core.topo_var[s] < 0) continue;
      const int r = rank[c.scc]++;
      const double m = static_cast<double>(scc_size[c.scc]);
      x[core.topo_var[s]] = integer_topo_vars
                                ? static_cast<double>(r)
                                : (static_cast<double>(r) + 1.0) / (2.0 * m);
    }
  }
  return x;
}

}  // namespace

EngineExtractionResult extract_engine(const EGraph& eg, const CostModel& model,
                                      const ExtractEngineOptions& options) {
  EngineExtractionResult result;

  // Phase laps: one reading of `timer`'s clock per phase boundary ends one
  // phase and starts the next, and the lap feeds both the phase's stats
  // field and, with a tracer installed, its span. Explicit records, not
  // ScopedSpans, because the phases share this scope and several exit
  // early. The same clock bounds the core solves; the per-core spans below
  // live on the solver workers' own lanes.
  const Timer timer;
  trace::Tracer* const tracer = trace::Tracer::current();
  Timer::Clock::time_point phase_start = timer.start();
  const auto phase_mark = [&](const char* name, double& seconds) {
    const Timer::Clock::time_point now = Timer::Clock::now();
    const double lap = Timer::seconds_between(phase_start, now);
    if (tracer != nullptr)
      tracer->record_span(name, tracer->us_at(phase_start), lap * 1e6);
    seconds += lap;
    phase_start = now;
  };

  // ---- Reach: flatten the reachable sub-e-graph --------------------------
  Problem p = Problem::build(eg, model);
  phase_mark("extract/reach", result.stats.reach_seconds);
  result.stats.classes_reachable = p.classes.size();

  // Greedy fallback graph: the REAL extract_greedy, exactly as the
  // monolithic path computes it, so the cyclic-selection fallback returns
  // the identical graph on both paths. (The engine's internal DP is not a
  // substitute: it sums each distinct child class once — the right
  // semantics for pricing pseudo-leaves, where a class is paid once — while
  // extract_greedy sums per child occurrence, so their argmins can differ
  // on classes with duplicated children.)
  ExtractionResult greedy;
  if (p.classes[p.root].dp_cost < kInfCost) greedy = extract_greedy(eg, model);
  // The warm-start/fallback computation is charged to lp-build, the phase
  // the monolithic path books it under, so the per-phase breakdown stays
  // comparable across the two paths.
  phase_mark("extract/greedy", result.stats.lp_build_seconds);

  // ---- Reduce + condense + collapse --------------------------------------
  if (p.classes[p.root].dp_cost == kInfCost) {
    result.milp_status = MilpStatus::kInfeasible;
    return result;
  }
  exteng::condense_sccs(p);  // cyclic flags gate forced removal
  exteng::ReduceOptions reduce_opt;
  reduce_opt.cycle_constraints = options.cycle_constraints;
  // Free-ness is structural (a zero-cost derivation exists), so it is
  // decided before forced propagation — otherwise a forced constant inside
  // a zero-cost tower would block the tower's removal.
  exteng::ReduceStats rstats;
  exteng::mark_free(p, rstats);
  exteng::reduce(p, reduce_opt, rstats);
  if (rstats.infeasible) {
    phase_mark("extract/reduce", result.stats.reduce_seconds);
    result.milp_status = MilpStatus::kInfeasible;
    return result;
  }
  exteng::condense_sccs(p);  // final SCCs of the reduced graph
  exteng::collapse_treelike(p, rstats);
  const size_t num_components = exteng::assign_components(p);

  phase_mark("extract/reduce", result.stats.reduce_seconds);
  result.stats.classes_forced = rstats.classes_forced;
  result.stats.classes_free = rstats.classes_free;
  result.stats.classes_collapsed = rstats.classes_collapsed;
  result.stats.classes_interior = rstats.classes_interior;
  result.stats.nodes_pruned_dominated = rstats.nodes_pruned_dominated;
  result.stats.nodes_pruned_bound = rstats.nodes_pruned_bound;
  result.stats.base_cost = p.base_cost;

  // ---- Assemble one MILP per core ----------------------------------------
  std::vector<Core> cores;
  cores.reserve(num_components);
  for (size_t k = 0; k < num_components; ++k) cores.emplace_back(p.classes.size());
  for (size_t s = 0; s < p.classes.size(); ++s) {
    const int32_t comp = p.classes[s].component;
    if (comp >= 0) cores[comp].members.push_back(static_cast<uint32_t>(s));
  }

  // SCC sizes (over core classes) for the per-SCC big-M / epsilon.
  std::vector<int> scc_size;
  for (size_t s = 0; s < p.classes.size(); ++s) {
    const ClassSlot& c = p.classes[s];
    if (c.scc < 0 || !p.is_core(static_cast<uint32_t>(s))) continue;
    if (static_cast<size_t>(c.scc) >= scc_size.size())
      scc_size.resize(static_cast<size_t>(c.scc) + 1, 0);
    ++scc_size[c.scc];
  }

  // Per-core budget: the decomposed analog of the monolithic
  // max_instance_nodes cap — instance size no longer matters, core size
  // does. Oversized cores drop to the LP-relaxation + rounding fallback
  // (one B&B root node) instead of refusing the whole extraction.
  size_t vars_total = 0;
  std::vector<uint8_t> fallback(cores.size(), 0);
  for (size_t k = 0; k < cores.size(); ++k) {
    size_t vars = 0;
    for (uint32_t s : cores[k].members) {
      const ClassSlot& c = p.classes[s];
      vars += c.collapsed ? 1 : p.live_option_count(s);
    }
    vars_total += vars;
    result.stats.largest_core_vars = std::max(result.stats.largest_core_vars, vars);
    if (vars > options.max_core_nodes) {
      fallback[k] = 1;
      ++result.stats.fallback_cores;
    }
  }
  result.stats.num_cores = num_components;
  result.stats.milp_vars_total = vars_total;

  for (Core& core : cores) {
    // Decision variables: one per live option, or one per collapsed
    // pseudo-leaf (priced at its exact incremental DP cost).
    for (uint32_t s : core.members) {
      const ClassSlot& c = p.classes[s];
      core.first_var[s] = core.lp.num_vars();
      if (c.collapsed) {
        core.lp.add_var(0.0, 1.0, c.dp_inc_cost);
        core.integral.push_back(true);
        core.decision_vars.push_back(s);
        core.decision_option.push_back(-1);
        core.var_count[s] = 1;
      } else {
        int count = 0;
        for (size_t k = 0; k < c.options.size(); ++k) {
          if (c.options[k].pruned) continue;
          core.lp.add_var(0.0, 1.0, c.options[k].cost);
          core.integral.push_back(true);
          core.decision_vars.push_back(s);
          core.decision_option.push_back(static_cast<int32_t>(k));
          ++count;
        }
        core.var_count[s] = count;
      }
      if (c.forced) core.forced_members.push_back(s);
    }
    // Topological-order variables: only classes of nontrivial SCCs can lie
    // on a cycle, so only they get t variables and big-M rows — the cyclic
    // cores the monolithic constraints (4)-(5) paid for globally.
    if (options.cycle_constraints) {
      for (uint32_t s : core.members) {
        const ClassSlot& c = p.classes[s];
        if (!c.cyclic) continue;
        const double m = static_cast<double>(scc_size[c.scc]);
        const double hi = options.integer_topo_vars ? std::max(m - 1.0, 0.0) : 1.0;
        core.topo_var[s] = core.lp.add_var(0.0, hi, 0.0);
        core.integral.push_back(options.integer_topo_vars);
      }
    }

    // Selection rows: forced classes must pick exactly one. Non-forced
    // multi-option classes get a binary selection INDICATOR s_c tied by
    // sum(x_i) - s_c = 0 (which subsumes the old <= 1 row: s_c's [0,1]
    // bound caps the sum). The indicator exists to branch on: fixing one
    // option variable lets the LP shift its mass to a sibling option of
    // the same class with no bound movement, while s_c = 0 kills every
    // option and s_c = 1 forces a full unit of selection through the
    // class — the dichotomy that actually resolves a chained core.
    // Single-option classes need neither: the lone variable is its own
    // indicator.
    for (uint32_t s : core.members) {
      const ClassSlot& c = p.classes[s];
      const int first = core.first_var[s];
      const int count = core.var_count[s];
      if (count == 0) continue;
      if (c.forced) {
        std::vector<std::pair<int, double>> terms;
        for (int v = first; v < first + count; ++v) terms.emplace_back(v, 1.0);
        core.lp.add_row(std::move(terms), 1.0, 1.0);
      } else if (count >= 2) {
        core.class_var[s] = core.lp.add_var(0.0, 1.0, 0.0);
        core.integral.push_back(true);
        std::vector<std::pair<int, double>> terms;
        for (int v = first; v < first + count; ++v) terms.emplace_back(v, 1.0);
        terms.emplace_back(core.class_var[s], -1.0);
        core.lp.add_row(std::move(terms), 0.0, 0.0);
      }
    }

    // Cover rows, aggregated per (parent class, child class), and the
    // topological-order rows for intra-SCC edges. Children that are forced
    // (selected anyway), free (zero-cost, selectable at will), removed, or
    // interior impose no cover.
    std::unordered_map<uint32_t, std::vector<int>> child_to_parents;
    for (uint32_t s : core.members) {
      const ClassSlot& c = p.classes[s];
      if (c.collapsed) continue;  // pseudo-leaf: subtree handled by DP
      child_to_parents.clear();
      const int first = core.first_var[s];
      int var = first;
      for (size_t k = 0; k < c.options.size(); ++k) {
        if (c.options[k].pruned) continue;
        const int this_var = var++;
        for (uint32_t child : c.options[k].children) {
          const ClassSlot& w = p.classes[child];
          if (w.removed || w.interior || w.free) continue;
          if (options.cycle_constraints && w.cyclic && c.cyclic && w.scc == c.scc) {
            // t_c - t_w - A*x >= (eps or 1) - A, per intra-SCC edge.
            const double m = static_cast<double>(scc_size[c.scc]);
            const double eps = 1.0 / (2.0 * m);
            const double big_a = options.integer_topo_vars ? m : 2.0;
            const double rhs = (options.integer_topo_vars ? 1.0 : eps) - big_a;
            core.lp.add_row({{core.topo_var[s], 1.0},
                             {core.topo_var[child], -1.0},
                             {this_var, -big_a}},
                            rhs, kInf);
          }
          if (w.forced) continue;  // cover vacuous: child picked regardless
          child_to_parents[child].push_back(this_var);
        }
      }
      for (const auto& [child, parent_vars] : child_to_parents) {
        std::vector<std::pair<int, double>> terms;
        for (int v : parent_vars) terms.emplace_back(v, 1.0);
        const int cfirst = core.first_var[child];
        const int ccount = core.var_count[child];
        for (int v = cfirst; v < cfirst + ccount; ++v) terms.emplace_back(v, -1.0);
        core.lp.add_row(std::move(terms), -kInf, 0.0);
      }
    }

    // Warm start: the DP (greedy) selection restricted to this core.
    auto choose_dp = [&](uint32_t s) { return dp_choice_var(p, core, s); };
    auto x = closure_to_x(p, core, options.cycle_constraints,
                          options.integer_topo_vars, scc_size, choose_dp);
    if (x && core.lp.feasible(*x, 1e-6)) core.warm = std::move(x);
  }
  phase_mark("extract/build", result.stats.lp_build_seconds);

  // ---- Solve the cores in parallel, merge in core order ------------------
  MilpOptions milp_opt_base;
  milp_opt_base.rel_gap = options.rel_gap;
  // Dispatch gate (the kMinParallelSearchWork lesson): parallelizing a
  // handful of tiny MILPs costs more than solving them, so the DEFAULT
  // (core_threads == 0) solves small instances on the calling thread —
  // identical results either way. An explicit thread count is honored
  // unconditionally, so tests and sanitizer jobs can force the pooled path.
  // The floor dropped 512 -> 128 with the persistent pool: dispatch is a
  // queue push, not a thread spawn, so only truly trivial core sets stay
  // serial.
  size_t core_threads = options.core_threads;
  if (core_threads == 0 && (cores.size() <= 1 || vars_total < 128))
    core_threads = 1;
  // Cross-request warm seeding: formulation keys and cache lookups happen
  // serially HERE, and stores serially after the solves, so one extraction
  // is a deterministic function of the cache state at entry — identical
  // cores within a request cannot race each other's entries on the pool.
  std::vector<uint64_t> warm_keys(cores.size(), 0);
  std::vector<MilpWarmCache::Entry> warm_seeds(cores.size());
  if (options.warm_cache != nullptr) {
    for (size_t k = 0; k < cores.size(); ++k) {
      warm_keys[k] = milp_formulation_key(cores[k].lp, cores[k].integral);
      if (auto entry = options.warm_cache->lookup(warm_keys[k])) {
        warm_seeds[k] = *entry;
        trace::incr("extract/core_seed_hits", 1);
      }
    }
  }
  parallel_for(cores.size(), core_threads, [&](size_t k) {
    // Per-core solve span on the worker's lane (arg = core index) — the
    // per-thread view of how the component solves pack onto the pool.
    const trace::ScopedSpan core_span("extract/core", static_cast<int64_t>(k));
    Core& core = cores[k];
    MilpOptions milp_opt = milp_opt_base;
    // time_limit_s is a TOTAL extraction budget, as it was for the
    // monolithic path: each core gets what is left on the shared wall
    // clock when its solve starts, so queued cores cannot stack N full
    // budgets. A core starting at (or past) the deadline times out
    // immediately, keeping its warm-start incumbent if it has one.
    milp_opt.time_limit_s =
        std::max(0.0, options.time_limit_s - timer.seconds());
    // Oversized core: LP-relaxation + iterative-rounding fallback. Explore
    // only the B&B root node — root LP, vector dive, LP-guided rounding —
    // and keep the root LP bound as the gap certificate.
    if (fallback[k]) milp_opt.max_nodes = 1;
    // Weigh class-selection indicators by the cost their dichotomy puts in
    // play (see MilpOptions::branch_weight): selecting the class costs at
    // least its cheapest option, and 2x biases ties toward the class-level
    // split, which moves the bound where an option split only shuffles
    // mass between siblings.
    milp_opt.branch_weight.assign(core.lp.num_vars(), 0.0);
    for (int v = 0; v < core.lp.num_vars(); ++v)
      milp_opt.branch_weight[v] = 1.0 + std::abs(core.lp.objective[v]);
    for (uint32_t s : core.members) {
      if (core.class_var[s] < 0) continue;
      double cheapest = kInfCost;
      const int first = core.first_var[s];
      for (int v = first; v < first + core.var_count[s]; ++v)
        cheapest = std::min(cheapest, core.lp.objective[v]);
      milp_opt.branch_weight[core.class_var[s]] = 2.0 * (1.0 + cheapest);
    }
    // LP-guided rounding, mirroring the monolithic: per class the largest
    // fractional variable, DP choice as fallback, closed under dependencies.
    milp_opt.rounding = [&](const std::vector<double>& xfrac)
        -> std::optional<std::vector<double>> {
      auto choose_rounded = [&](uint32_t s) -> int {
        const int first = core.first_var[s];
        const int count = core.var_count[s];
        int best = -1;
        double best_value = 1e-6;
        for (int v = first; v < first + count; ++v) {
          if (xfrac[v] > best_value) {
            best_value = xfrac[v];
            best = v;
          }
        }
        return best >= 0 ? best : dp_choice_var(p, core, s);
      };
      return closure_to_x(p, core, options.cycle_constraints,
                          options.integer_topo_vars, scc_size, choose_rounded);
    };
    // AND-OR hitting-set cuts, separated at the B&B root (cut & branch).
    // The plain relaxation of a chained core decays geometrically: a parent
    // picked at eps only charges each child class eps of selection mass, so
    // depth-d classes contribute ~2^-d of their cost and the root LP bound
    // is nearly vacuous (observed 18.5 vs a 209.4 optimum on explored
    // BERT). Every feasible selection derives each forced anchor, and a
    // derivation through option o activates ALL of o's covered children —
    // so replacing a frontier class f by one covered child per live option
    // of f keeps the frontier a hitting set for every selection. Walking
    // the frontier toward minimum fractional mass finds the depth where the
    // decay hides, and `sum of S's selection vars >= 1` restores full unit
    // mass there. Valid for every integer point, independent of branching
    // bounds, so the strengthened best_bound stays a certificate.
    milp_opt.cut_generator = [&core, &p](const std::vector<double>& xfrac)
        -> std::vector<LinearProgram::Row> {
      auto class_mass = [&](uint32_t s) {
        double m = 0.0;
        const int first = core.first_var[s];
        for (int v = first; v < first + core.var_count[s]; ++v) m += xfrac[v];
        return m;
      };
      std::vector<LinearProgram::Row> cuts;
      std::set<std::vector<uint32_t>> emitted;
      for (uint32_t anchor : core.forced_members) {
        std::set<uint32_t> frontier{anchor};
        std::set<uint32_t> sticky;
        std::vector<std::vector<uint32_t>> snapshots;  // improving frontiers
        double best_mass = 1.0 - 1e-4;  // emit only strictly violated sets
        for (int step = 0; step < 4096; ++step) {
          double mass = 0.0;
          for (uint32_t s : frontier) mass += class_mass(s);
          if (mass < best_mass) {
            best_mass = mass;
            snapshots.emplace_back(frontier.begin(), frontier.end());
          }
          // Expand the heaviest non-sticky member one level down.
          bool found = false;
          uint32_t f = 0;
          double fm = -1.0;
          for (uint32_t s : frontier) {
            if (sticky.count(s)) continue;
            const double m = class_mass(s);
            if (m > fm) {
              fm = m;
              f = s;
              found = true;
            }
          }
          if (!found) break;
          const ClassSlot& c = p.classes[f];
          bool expandable = !c.collapsed;
          std::vector<uint32_t> chosen;
          for (size_t k = 0; expandable && k < c.options.size(); ++k) {
            if (c.options[k].pruned) continue;
            int32_t pick = -1;
            double pick_mass = kInfCost;
            for (uint32_t child : c.options[k].children) {
              const ClassSlot& w = p.classes[child];
              // Mirror the cover-row filter exactly: only children the LP
              // actually forces can extend the hitting set.
              if (w.removed || w.interior || w.free || w.forced) continue;
              const double m = frontier.count(child) ? 0.0 : class_mass(child);
              if (m < pick_mass - 1e-12) {
                pick_mass = m;
                pick = static_cast<int32_t>(child);
              }
            }
            if (pick < 0)
              expandable = false;  // uncovered option: cannot hit below f
            else
              chosen.push_back(static_cast<uint32_t>(pick));
          }
          if (!expandable ||
              (chosen.size() == 1 && chosen[0] == f)) {  // self-loop only
            sticky.insert(f);
            continue;
          }
          frontier.erase(f);
          for (uint32_t w : chosen) frontier.insert(w);
        }
        // Deepest (lowest-mass) snapshots first; a handful per anchor keeps
        // rounds few without flooding the LP with correlated rows. Wide
        // frontiers are dropped outright: a dense hitting-set row buys
        // little bound (its unit of mass spreads over many classes) and
        // costs every later solve dearly — LU fill-in from dense rows is
        // what turns warm node LPs from milliseconds into tenths.
        constexpr size_t kMaxCutWidth = 48;
        const size_t take = std::min<size_t>(snapshots.size(), 8);
        for (size_t i = snapshots.size() - take; i < snapshots.size(); ++i) {
          if (snapshots[i].size() > kMaxCutWidth) continue;
          if (!emitted.insert(snapshots[i]).second) continue;
          LinearProgram::Row row;
          for (uint32_t s : snapshots[i]) {
            // One term per class: the selection indicator where one exists
            // (same value as the option sum, by its equality row), else the
            // class's option variables.
            if (core.class_var[s] >= 0) {
              row.terms.emplace_back(core.class_var[s], 1.0);
            } else {
              for (int v = core.first_var[s];
                   v < core.first_var[s] + core.var_count[s]; ++v)
                row.terms.emplace_back(v, 1.0);
            }
          }
          row.lo = 1.0;
          row.hi = kInf;
          cuts.push_back(std::move(row));
        }
      }
      return cuts;
    };
    milp_opt.seed_basis = warm_seeds[k].basis;
    milp_opt.seed_pseudocost = warm_seeds[k].pseudocost;
    core.milp = solve_milp(core.lp, core.integral, milp_opt, core.warm);
  });
  if (options.warm_cache != nullptr) {
    for (size_t k = 0; k < cores.size(); ++k) {
      if (cores[k].milp.root_basis != nullptr ||
          cores[k].milp.pseudocost != nullptr)
        options.warm_cache->store(
            warm_keys[k],
            {cores[k].milp.root_basis, cores[k].milp.pseudocost});
    }
  }
  phase_mark("extract/solve", result.stats.solve_seconds);

  // Aggregate solver outcomes: optimal only if every core proved optimal;
  // a core with an incumbent but no proof degrades the whole result to
  // feasible; no incumbent anywhere, or an infeasible core, fails it.
  result.milp_status = MilpStatus::kOptimal;
  double bound = p.base_cost;
  for (size_t k = 0; k < cores.size(); ++k) {
    const Core& core = cores[k];
    // A fallback core stops at its one-node budget, which the B&B reports
    // as timed_out; with an incumbent in hand that is the intended
    // bounded-gap outcome, not a failure, so it does not mark the
    // extraction timed out.
    const bool fallback_ok =
        fallback[k] && (core.milp.status == MilpStatus::kFeasible ||
                        core.milp.status == MilpStatus::kOptimal);
    result.timed_out =
        result.timed_out || (core.milp.timed_out && !fallback_ok);
    result.bb_nodes += core.milp.nodes_explored;
    result.lp_iterations += core.milp.lp_iterations;
    result.stats.warm_start_hits += core.milp.warm_start_hits;
    result.stats.refactorizations += core.milp.refactorizations;
    if (core.milp.status == MilpStatus::kInfeasible)
      result.milp_status = MilpStatus::kInfeasible;
    else if (core.milp.status == MilpStatus::kNoSolution &&
             result.milp_status != MilpStatus::kInfeasible)
      result.milp_status = MilpStatus::kNoSolution;
    else if (core.milp.status == MilpStatus::kFeasible &&
             result.milp_status == MilpStatus::kOptimal)
      result.milp_status = MilpStatus::kFeasible;
    bound += core.milp.best_bound;
  }
  result.best_bound = bound;
  result.solve_seconds = result.stats.solve_seconds;
  if (result.milp_status != MilpStatus::kOptimal &&
      result.milp_status != MilpStatus::kFeasible) {
    return result;
  }

  // ---- Stitch: per-core selections + DP expansions -> one Graph ----------
  std::unordered_map<Id, TNode> selection;
  for (const ClassSlot& c : p.classes) {
    if (!c.reachable) continue;
    if (c.removed && !c.collapsed) {
      for (const Option& o : c.options)
        if (!o.pruned) selection.emplace(c.id, *o.node);
    } else if (c.free) {
      selection.emplace(c.id, *c.options[c.free_choice].node);
    } else if (c.interior || (c.removed && c.collapsed)) {
      if (c.dp_inc_choice >= 0)
        selection.emplace(c.id, *c.options[c.dp_inc_choice].node);
    }
  }
  for (const Core& core : cores) {
    for (size_t v = 0; v < core.decision_vars.size(); ++v) {
      if (core.milp.x[v] <= 0.5) continue;
      const ClassSlot& c = p.classes[core.decision_vars[v]];
      const int32_t opt = core.decision_option[v];
      if (opt >= 0) {
        selection.emplace(c.id, *c.options[opt].node);
      } else if (c.dp_inc_choice >= 0) {  // selected pseudo-leaf
        selection.emplace(c.id, *c.options[c.dp_inc_choice].node);
      }
    }
  }
  stitch_selection(eg, model, selection, std::move(greedy), result);
  phase_mark("extract/stitch", result.stats.stitch_seconds);
  return result;
}

}  // namespace tensat
