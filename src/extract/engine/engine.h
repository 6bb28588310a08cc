// The extraction engine (paper §5 at scale): a staged replacement for the
// monolithic "build one giant ILP over every reachable e-node, solve"
// extraction path, which mirrors the paper's >1-hour SCIP timeouts with a
// hard max_instance_nodes refusal. The engine instead runs
//
//   reach -> reduce -> condense -> per-core MILPs (parallel) -> stitch
//
//  1. Reduction passes (extract/engine/reduce.h): forced-choice propagation,
//     cost-dominance pruning, greedy-incumbent-bound pruning, infeasibility
//     propagation — exact presolve that typically removes most variables.
//  2. Dependency condensation (extract/engine/scc.h): Tarjan SCCs of the
//     class-dependency graph. Exclusive tree-like regions are solved exactly
//     by bottom-up DP and collapse to pseudo-leaves; the paper's acyclicity
//     constraints (4)-(5) are emitted only inside nontrivial SCCs; the
//     residual splits into independent components ("cores").
//  3. Per-core branch & bound (ilp/milp.h) over the support/parallel.h pool,
//     merged deterministically, then one stitched global selection.
//
// Oversized cores (> max_core_nodes decision variables) take the
// LP-relaxation + rounding fallback instead of refusing the extraction.
//
// The engine is the one production extractor: optimize(), the service and
// the benches all call it. The monolithic extract_ilp (extract/extract.h) is
// not a mode of it; it stays as the paper's literal formulation, the
// differential oracle (tests/extract_test.cpp and tests/extract_fuzz_test
// .cpp pin exact-cost parity on every instance both solve), following the
// same convention as the naive matcher in tests/naive_matcher.h.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "extract/extract.h"
#include "ilp/milp.h"

namespace tensat {

/// Cross-request MILP warm-start cache (the service's PR-8 lever): root
/// basis + pseudocost snapshots of solved extraction cores, keyed by a
/// fingerprint of the core's exact LP formulation (rows, objective,
/// integrality — the invariants SparseBasis and PseudocostSnapshot need).
/// A repeated or perturbed request that reassembles an identical core LP
/// starts its solve from the previous root basis and branching history.
///
/// Thread-safe; bounded FIFO eviction. Snapshots only ever seed a solver
/// that re-validates them (dimension-checked warm load with cold fallback,
/// advisory pseudocosts), so a stale or colliding entry can at worst slow a
/// solve — never change its certified result.
class MilpWarmCache {
 public:
  struct Entry {
    std::shared_ptr<const SparseBasis> basis;
    std::shared_ptr<const PseudocostSnapshot> pseudocost;
  };

  explicit MilpWarmCache(size_t capacity = 512) : capacity_(capacity) {}

  /// Returns the stored entry for a formulation key, if any.
  std::optional<Entry> lookup(uint64_t key);
  /// Stores (or refreshes) the entry for a key, evicting FIFO past capacity.
  void store(uint64_t key, Entry entry);

  [[nodiscard]] size_t size() const;

 private:
  mutable std::mutex mu_;
  size_t capacity_;
  std::unordered_map<uint64_t, Entry> map_;
  std::deque<uint64_t> order_;  // insertion order, for FIFO eviction
};

/// Fingerprint of an LP formulation + integrality mask: equal keys for the
/// byte-equal formulations the snapshot contracts require. (Bounds are
/// EXCLUDED: a basis is valid across bound changes — that is the whole
/// warm-start design — so forced-assignment differences between requests
/// still share entries.)
uint64_t milp_formulation_key(const LinearProgram& lp,
                              const std::vector<bool>& integer_mask);

struct ExtractEngineOptions : IlpExtractOptions {
  /// Per-core budget on decision variables, replacing the monolithic
  /// max_instance_nodes (which the engine deliberately ignores: total
  /// instance size no longer bounds what is solvable — only the largest
  /// residual core does). Cores over the budget are solved by the
  /// LP-relaxation + iterative-rounding fallback — a single B&B root node:
  /// root LP, vector dive, LP-guided rounding — returning a feasible
  /// selection with a certified gap (ExtractStats::gap).
  size_t max_core_nodes = 2600;
  /// Worker threads for the per-core MILP solves. 0 (default) = one per
  /// hardware thread, except that single-core or tiny instances solve on
  /// the calling thread (thread spawns would cost more than the solves);
  /// an explicit count is honored unconditionally. Any value produces the
  /// same result: cores are independent, each solve is deterministic, and
  /// results merge in core order.
  size_t core_threads = 0;
  /// Cross-request warm-start cache, shared and owned by the caller (the
  /// service wires one per OptimizationService). Lookups happen serially at
  /// core-assembly time and stores serially after all solves, so within one
  /// extraction the result is deterministic for a given cache state.
  /// nullptr (default) = no cross-request seeding.
  MilpWarmCache* warm_cache = nullptr;
};

using EngineExtractionResult = IlpExtractionResult;

/// ILP extraction from the e-graph's root class through the engine.
/// Semantics match extract_ilp: greedy warm starts and fallbacks, timeout
/// reporting, cyclic-selection fallback; `stats` carries the per-phase
/// breakdown. Never too_large: oversized cores take the LP fallback.
EngineExtractionResult extract_engine(const EGraph& eg, const CostModel& model,
                                      const ExtractEngineOptions& options = {});

}  // namespace tensat
