// Incremental cycle analysis: the descendants relation and the post-rebuild
// cycle sweep of Algorithm 2 (paper §5.2), maintained across exploration
// iterations instead of being rebuilt from scratch once per iteration.
//
// Between two rebuild boundaries the e-graph only grows — e-nodes are added
// and classes merged, never removed — so class-graph reachability is
// monotone within an iteration and the previous iteration's closure remains
// a valid starting point. The e-graph records every state change in a
// CycleJournal (egraph/egraph.h: new classes, a merge trace, newly filtered
// nodes); at the serial commit/rebuild boundary advance_epoch() drains the
// journal and repairs the closure in place:
//
//  * dirty classes = merged representatives + classes with newly filtered
//    nodes + new classes — exactly the classes whose out-edges changed;
//  * the recompute set R = dirty ∪ ancestors(dirty), found by walking the
//    e-graph's parents lists upward (a conservative superset: parents
//    entries survive filtering and merging);
//  * rows outside R provably kept their exact closure (any class whose
//    reachable set changed must reach a dirty class, making it an ancestor),
//    so only rows in R are recomputed, children-first, against the already-
//    final rows of their non-R children.
//
// When merges fuse a large region, |R| approaches the class count and the
// incremental repair would do the full rebuild's work with extra
// bookkeeping; advance_epoch() then falls back to full reconstruction
// (fallback_fraction). Either way the result is the exact transitive
// closure of the clean, acyclic class graph — bit-for-bit the same relation
// DescendantsMap computes fresh, which is what keeps incremental and fresh
// exploration e-graphs identical (tests/cycles_incremental_test.cpp).
//
// The cycle sweep is scoped the same way: an e-graph that was acyclic at
// the last boundary can only have grown a cycle through a class fused by a
// merge since (add-only growth is acyclic by construction — every e-node's
// children predate it). sweep_cycles() therefore runs a detection-only DFS
// restarted just from the merged representatives (has_cycle_from); only
// when that finds a cycle does the full filter_cycles() pass run — the very
// same pass the fresh baseline runs, so the resolved (filtered) node set is
// identical by construction, not merely equivalent.
//
// Epoch/concurrency contract (renegotiating the snapshot-immutability note
// in cycles.h): stage-1 planning workers read a frozen epoch of the map
// through ReachabilityMap::reaches() while the journal accumulates on the
// side; the epoch advances only inside sweep_cycles()/advance_epoch(),
// which the optimizer calls strictly at the serial rebuild boundary. The
// map's content is a pure function of the e-graph state at the boundary —
// never of apply_threads, search_threads, or worker scheduling — so
// incremental mode preserves bit-identical e-graphs for any thread count
// (tests/apply_pipeline_test.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "cycles/cycles.h"
#include "egraph/egraph.h"

namespace tensat {

/// Counters for the incremental subsystem, reported by tests and benches.
struct IncrementalCycleStats {
  size_t epochs{0};             // advance_epoch() calls
  size_t fresh_rebuilds{0};     // full reconstructions (incl. the initial one)
  size_t incremental_updates{0};  // scoped row repairs
  size_t rows_recomputed{0};    // closure rows recomputed across all epochs
  size_t sweeps_skipped{0};     // sweeps skipped outright (no merges recorded)
  size_t sweeps_clean{0};       // scoped detection proved acyclicity
  size_t sweeps_full{0};        // detection found a cycle -> full filter pass
};

/// The incremental descendants map + scoped cycle sweep. Owns the journal it
/// attaches to the e-graph; detaches on destruction. The analysis must not
/// outlive the e-graph, and the e-graph must not be moved while attached.
///
/// Intended call sequence per exploration iteration, all at the serial
/// boundary (see the header comment for the epoch contract):
///
///   IncrementalCycleAnalysis inc(eg);       // eg clean; builds epoch 0
///   for each iteration:
///     ... plan/commit (reaches() queried concurrently, journal grows) ...
///     eg.rebuild();
///     inc.sweep_cycles();                   // scoped Algorithm 2 post-pass
///     inc.advance_epoch();                  // journal -> next frozen epoch
class IncrementalCycleAnalysis final : public ReachabilityMap {
 public:
  /// Attaches to `eg` (which must be clean) and builds the initial epoch
  /// with a full reconstruction. `fallback_fraction`: advance_epoch() falls
  /// back to full reconstruction when the recompute set exceeds this
  /// fraction of the canonical class count. `threads`: worker count for the
  /// full reconstruction's row-DP, 0 = one per hardware thread (rebuild_fresh
  /// computes rows in topological waves on the shared pool; everything
  /// observable — slot assignment, row contents, reaches() answers — is
  /// identical for any value, see rebuild_fresh). The incremental repair
  /// itself stays serial: its recompute sets are small by construction
  /// (past the fallback threshold it *is* the full reconstruction).
  explicit IncrementalCycleAnalysis(EGraph& eg, double fallback_fraction = 0.5,
                                    size_t threads = 1);
  ~IncrementalCycleAnalysis() override;
  IncrementalCycleAnalysis(const IncrementalCycleAnalysis&) = delete;
  IncrementalCycleAnalysis& operator=(const IncrementalCycleAnalysis&) = delete;

  /// The frozen epoch's descendants relation — same answers as a
  /// DescendantsMap built on the epoch's clean e-graph. Ids must be
  /// canonical ids of that snapshot (callers canonicalize through find());
  /// ids the snapshot has never seen return false.
  [[nodiscard]] bool reaches(Id from, Id to) const override;

  /// The scoped Algorithm 2 post-pass: returns 0 immediately when the
  /// journal records no merges (add-only growth cannot create a cycle), runs
  /// the detection DFS from the merged representatives otherwise, and only
  /// on a confirmed cycle delegates to the full filter_cycles() — whose
  /// resolution order the fresh baseline shares, keeping filtered sets
  /// identical. Call on a clean (rebuilt) e-graph, before advance_epoch().
  size_t sweep_cycles();

  /// Drains the journal and repairs the closure to match the current clean,
  /// acyclic e-graph (incrementally, or via full reconstruction past the
  /// fallback threshold). Call at the serial rebuild boundary, after
  /// sweep_cycles().
  void advance_epoch();

  [[nodiscard]] const IncrementalCycleStats& stats() const { return stats_; }

  /// The e-graph this analysis is attached to. A session persisting the
  /// analysis across run_exploration calls uses this to verify it is being
  /// resumed against the same e-graph (the journal and closure are
  /// meaningless against any other).
  [[nodiscard]] const EGraph* egraph() const { return eg_; }

 private:
  void rebuild_fresh();
  /// Assigns a dense row/column index to a class that has none, reusing a
  /// freed slot when available; zeroing is the recompute's job.
  int32_t alloc_index(Id id);
  /// Grows the matrix so every assigned index has a row and the stride
  /// covers every index as a column; re-striding (rare: 1024-column
  /// granularity) copies all live rows.
  void ensure_capacity();
  [[nodiscard]] uint64_t* row(int32_t index) {
    return &bits_[static_cast<size_t>(index) * words_];
  }
  [[nodiscard]] const uint64_t* row(int32_t index) const {
    return &bits_[static_cast<size_t>(index) * words_];
  }
  /// Recomputes class `id`'s row from its (unfiltered, canonical) children's
  /// rows, allocating its index if needed.
  void recompute_row(Id id);

  EGraph* eg_;
  CycleJournal journal_;
  double fallback_fraction_;
  size_t threads_;
  /// Dense row/column indices: index_[id] is the matrix slot of canonical
  /// class `id`, or -1 (non-canonical, or created after the epoch — both
  /// answer false, matching DescendantsMap's unknown-id semantics). A class
  /// merged away frees its slot for reuse by a later class: any surviving
  /// row holding a bit of the freed column would have reached the dead
  /// class, making it an ancestor of the merge — hence recomputed this very
  /// epoch — so stale bits can never alias the slot's next owner. Dense
  /// indexing keeps the matrix sized by live classes, not by every id ever
  /// created (explorations merge away most of what they add).
  std::vector<int32_t> index_;
  std::vector<int32_t> free_slots_;
  int32_t slots_used_{0};   // high-water mark of assigned indices
  size_t row_capacity_{0};  // allocated row slots
  size_t words_{0};         // uint64 stride per row
  std::vector<uint64_t> bits_;
  IncrementalCycleStats stats_;
};

}  // namespace tensat
