#include "cycles/incremental.h"

#include <algorithm>

#include "support/check.h"
#include "support/parallel.h"
#include "trace/trace.h"

namespace tensat {
namespace {

/// Word stride for rows covering `cols` dense columns, rounded up to 1024-
/// column granularity so growth re-strides the matrix (a full row-by-row
/// copy) at most once per 1024 new live classes.
size_t words_for(size_t cols) {
  constexpr size_t kGranularityWords = 16;  // 16 * 64 = 1024 columns
  const size_t need = (cols + 63) / 64;
  const size_t rounded =
      (need + kGranularityWords - 1) / kGranularityWords * kGranularityWords;
  return rounded == 0 ? kGranularityWords : rounded;
}

/// Minimum row-DP work in one topological wave, in 64-bit words ORed (the
/// child edges of the wave's unfiltered e-nodes times the row stride),
/// before rebuild_fresh dispatches the wave to the pool; lighter waves run
/// on the calling thread, where waking the workers would cost more than the
/// wave. Measured on a 4-core x86 host, median of 30-40 constructions of the
/// analysis per explored NasRNN, BERT and SharedMM e-graph (77 to 30,016
/// classes): below 65k words the pool ran 0.02-1.83x as fast as the calling
/// thread and lost on most waves; from 65k words up it won on every wave
/// (1.08-3.68x).
constexpr size_t kMinParallelRowWork = size_t{1} << 16;

}  // namespace

IncrementalCycleAnalysis::IncrementalCycleAnalysis(EGraph& eg,
                                                   double fallback_fraction,
                                                   size_t threads)
    : eg_(&eg),
      fallback_fraction_(fallback_fraction),
      threads_(resolve_threads(threads)) {
  TENSAT_CHECK(eg.cycle_journal() == nullptr,
               "e-graph already has a cycle journal attached");
  eg.set_cycle_journal(&journal_);
  rebuild_fresh();
}

IncrementalCycleAnalysis::~IncrementalCycleAnalysis() {
  eg_->set_cycle_journal(nullptr);
}

bool IncrementalCycleAnalysis::reaches(Id from, Id to) const {
  if (from < 0 || to < 0) return false;
  const size_t f = static_cast<size_t>(from);
  const size_t t = static_cast<size_t>(to);
  if (f >= index_.size() || t >= index_.size()) return false;
  const int32_t fi = index_[f];
  const int32_t ti = index_[t];
  if (fi < 0 || ti < 0) return false;
  return (row(fi)[static_cast<size_t>(ti) / 64] >> (ti % 64)) & 1u;
}

int32_t IncrementalCycleAnalysis::alloc_index(Id id) {
  int32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = slots_used_++;
    ensure_capacity();
  }
  index_[id] = slot;
  return slot;
}

void IncrementalCycleAnalysis::ensure_capacity() {
  const size_t slots = static_cast<size_t>(slots_used_);
  const size_t need_words = words_for(slots);
  if (need_words > words_) {
    // Re-stride: copy every live row into the wider layout. Growing capacity
    // with headroom at the same time keeps this rare.
    const size_t new_capacity = std::max(slots + slots / 2 + 64, row_capacity_);
    std::vector<uint64_t> grown(new_capacity * need_words, 0);
    const size_t live = std::min(row_capacity_, slots);
    for (size_t i = 0; i < live; ++i)
      std::copy(&bits_[i * words_], &bits_[i * words_ + words_],
                &grown[i * need_words]);
    bits_ = std::move(grown);
    words_ = need_words;
    row_capacity_ = new_capacity;
  } else if (slots > row_capacity_) {
    row_capacity_ = slots + slots / 2 + 64;
    bits_.resize(row_capacity_ * words_, 0);
  }
}

void IncrementalCycleAnalysis::recompute_row(Id id) {
  int32_t idx = index_[id];
  if (idx < 0) idx = alloc_index(id);
  uint64_t* dst = row(idx);
  std::fill(dst, dst + words_, 0);
  for (const EClassNode& e : eg_->eclass(id).nodes) {
    if (e.filtered) continue;
    for (Id child : e.node.children) {
      const Id c = eg_->find(child);
      const int32_t ci = index_[c];
      // Children-first order guarantees every canonical child has a row by
      // now (recomputed this epoch, or kept — and provably still exact).
      const uint64_t* src = row(ci);
      for (size_t w = 0; w < words_; ++w) dst[w] |= src[w];
      dst[static_cast<size_t>(ci) / 64] |= (1ull << (ci % 64));
    }
  }
}

namespace {

/// Children-first recompute driver: rows of every id marked 1 in `state` are
/// recomputed by `recompute` in reverse-topological order, recursing only
/// into marked children (unmarked rows are already final). Back edges —
/// impossible on the acyclic post-sweep graph, but tolerated for misuse —
/// are skipped, mirroring DescendantsMap's under-approximation.
/// State encoding: 0 not a member, 1 member pending, 2 visiting, 3 done.
template <typename Recompute>
void recompute_members(const EGraph& eg, std::vector<int8_t>& state,
                       const Recompute& recompute) {
  struct Frame {
    Id cls;
    size_t node_i{0};
    size_t child_i{0};
  };
  std::vector<Frame> path;
  const Id n = static_cast<Id>(state.size());
  for (Id start = 0; start < n; ++start) {
    if (state[start] != 1) continue;
    path.push_back(Frame{start});
    state[start] = 2;
    while (!path.empty()) {
      Frame& f = path.back();
      const EClass& cls = eg.eclass(f.cls);
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
        if (state[child] == 1) {
          state[child] = 2;
          path.push_back(Frame{child});
          descended = true;
          break;
        }
        // state 2 = back edge (skip), 0/3 = row already final.
      }
      if (descended) continue;
      if (f.node_i >= cls.nodes.size()) {
        recompute(f.cls);
        state[f.cls] = 3;
        path.pop_back();
      }
    }
  }
}

}  // namespace

void IncrementalCycleAnalysis::rebuild_fresh() {
  // The incremental repair's bail-out; worth a timeline marker because a
  // string of these means the merge pattern defeats the journal.
  const trace::ScopedSpan span("cycles/rebuild_fresh");
  ++stats_.fresh_rebuilds;
  const size_t n = eg_->num_ids();
  index_.assign(n, -1);
  free_slots_.clear();
  slots_used_ = 0;
  std::vector<int8_t> state(n, 0);
  size_t canonical = 0;
  // Pre-assign every canonical class its matrix slot in ascending id order
  // — a pure function of the e-graph, never of the wave schedule below.
  // (The incremental repair allocates lazily in recompute order instead;
  // that's fine there because it runs serially, but the parallel row-DP
  // must not race on slots_used_, and determinism tests compare matrices
  // across thread counts.)
  for (Id id = 0; id < static_cast<Id>(n); ++id) {
    if (eg_->find(id) == id) {
      state[id] = 1;
      ++canonical;
      index_[id] = slots_used_++;
    }
  }
  words_ = words_for(canonical);
  row_capacity_ = canonical + 64;
  bits_.assign(row_capacity_ * words_, 0);

  // Row-DP in topological waves: level(c) = 1 + max level over the
  // canonical children of c's unfiltered nodes, computed children-first by
  // the same driver the serial repair uses. All rows of one wave depend
  // only on rows of strictly earlier waves, so each wave recomputes on the
  // shared pool with no synchronization beyond the fork-join barrier; every
  // slot was assigned above and the matrix is pre-sized, so recompute_row
  // touches only its own disjoint row. Wave membership, slot numbering, and
  // row contents are all schedule-independent — serial and parallel
  // rebuilds produce bit-identical matrices.
  std::vector<int32_t> level(n, 0);
  std::vector<size_t> wave_edges;  // child edges summed per level
  recompute_members(*eg_, state, [&](Id id) {
    int32_t lv = 0;
    size_t edges = 0;
    for (const EClassNode& e : eg_->eclass(id).nodes) {
      if (e.filtered) continue;
      edges += e.node.children.size();
      for (Id child : e.node.children) {
        const Id c = eg_->find(child);
        if (c != id) lv = std::max(lv, level[c] + 1);
      }
    }
    level[id] = lv;
    const size_t wave = static_cast<size_t>(lv);
    if (wave_edges.size() <= wave) wave_edges.resize(wave + 1, 0);
    wave_edges[wave] += edges;
  });
  std::vector<std::vector<Id>> waves(wave_edges.size());
  for (Id id = 0; id < static_cast<Id>(n); ++id)
    if (state[id] == 3) waves[static_cast<size_t>(level[id])].push_back(id);
  for (size_t lv = 0; lv < waves.size(); ++lv) {
    const std::vector<Id>& wave = waves[lv];
    if (threads_ <= 1 || wave_edges[lv] * words_ < kMinParallelRowWork) {
      for (Id id : wave) recompute_row(id);
    } else {
      parallel_for(wave.size(), threads_,
                   [&](size_t i) { recompute_row(wave[i]); });
    }
  }
}

size_t IncrementalCycleAnalysis::sweep_cycles() {
  const trace::ScopedSpan span("cycles/sweep");
  // Add-only growth cannot create a cycle (every e-node's children predate
  // it), so with no merges recorded the graph is as acyclic as the last
  // epoch left it.
  if (journal_.merges.empty()) {
    ++stats_.sweeps_skipped;
    return 0;
  }
  // Every new cycle passes through a class fused by one of this epoch's
  // merges (see the header comment), so DFSing from just the merged
  // representatives decides acyclicity of the whole graph.
  std::vector<Id> roots;
  roots.reserve(journal_.merges.size());
  for (const auto& [a, b] : journal_.merges) {
    (void)b;
    roots.push_back(eg_->find(a));
  }
  std::sort(roots.begin(), roots.end());
  roots.erase(std::unique(roots.begin(), roots.end()), roots.end());
  if (!has_cycle_from(*eg_, roots)) {
    ++stats_.sweeps_clean;
    return 0;
  }
  // A cycle exists: resolve with the full filter_cycles pass — the same
  // code, in the same discovery order, as the fresh baseline, so the two
  // modes filter identical node sets. Its set_filtered calls land in the
  // journal and dirty the affected rows for advance_epoch.
  ++stats_.sweeps_full;
  return filter_cycles(*eg_);
}

void IncrementalCycleAnalysis::advance_epoch() {
  const trace::ScopedSpan span("cycles/advance_epoch");
  ++stats_.epochs;
  const size_t n = eg_->num_ids();
  if (journal_.empty() && n == index_.size()) return;

  // Dirty classes: out-edge sets changed. Merged-away new classes are
  // covered by their (dirty) representative. Classes merged away free their
  // matrix slot — safe to reuse immediately, because any surviving row that
  // referenced the freed column reached the dead class and is therefore an
  // ancestor of the merge, i.e. recomputed below.
  std::vector<Id> dirty;
  dirty.reserve(journal_.merges.size() + journal_.filtered_classes.size() +
                journal_.new_classes.size());
  for (const auto& [a, b] : journal_.merges) {
    dirty.push_back(eg_->find(a));
    for (const Id loser : {a, b}) {
      if (eg_->find(loser) != loser &&
          static_cast<size_t>(loser) < index_.size() && index_[loser] >= 0) {
        free_slots_.push_back(index_[loser]);
        index_[loser] = -1;
      }
    }
  }
  for (Id c : journal_.filtered_classes) dirty.push_back(eg_->find(c));
  for (Id c : journal_.new_classes) dirty.push_back(eg_->find(c));
  journal_.clear();
  index_.resize(n, -1);
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());

  // R = dirty ∪ ancestors(dirty), walked over the parents lists (which
  // survive filtering and merging, so this is a conservative superset of
  // the true ancestor set — extra members just recompute to their old row).
  std::vector<int8_t> state(n, 0);
  std::vector<Id> stack;
  stack.reserve(dirty.size());
  size_t r_count = 0;
  for (Id d : dirty) {
    if (state[d] == 0) {
      state[d] = 1;
      stack.push_back(d);
      ++r_count;
    }
  }
  while (!stack.empty()) {
    const Id c = stack.back();
    stack.pop_back();
    for (const auto& [p_node, p_class] : eg_->eclass(c).parents) {
      (void)p_node;
      const Id p = eg_->find(p_class);
      if (state[p] == 0) {
        state[p] = 1;
        stack.push_back(p);
        ++r_count;
      }
    }
  }

  // Merges that fused a large region dirty most of the graph; the scoped
  // repair would then do the full rebuild's work plus bookkeeping.
  if (static_cast<double>(r_count) >
      fallback_fraction_ * static_cast<double>(eg_->num_classes())) {
    rebuild_fresh();
    return;
  }

  ++stats_.incremental_updates;
  stats_.rows_recomputed += r_count;
  recompute_members(*eg_, state, [this](Id id) { recompute_row(id); });
}

}  // namespace tensat
