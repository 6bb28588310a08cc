// The e-graph: a set of e-classes, each a set of equivalent e-nodes, with
// hash-consing and deferred congruence-closure maintenance (the rebuild
// algorithm of egg, Willsey et al. 2020). The tensor shape analysis
// (lang/shapes.h) is attached as the e-class analysis, which implements the
// paper's shape checking: try_add() refuses to create nodes whose shapes
// don't check out, which is how rewrites with shape preconditions are gated.
//
// Cycle filtering (paper §5.2) is supported through per-e-node `filtered`
// flags: a filtered node is treated as removed by the matcher, the cycle
// analyses, and extraction, mirroring the paper's filter list l (the ILP
// constraint "x_i = 0 for i in l").
//
// Nodes and analysis values are plain data (lang/node.h, lang/shapes.h), so
// the e-graph copies them without allocating. Each e-node is known by an id,
// its insertion stamp: parent lists hold these ids, and the e-graph keeps
// per id the key under which the e-node sits in the hash-cons, which is
// what rebuild() erases and re-interns. The hash-cons itself is one flat
// open-addressing table of e-node ids (FlatTable): a slot holds an id, a
// class and a 32-bit hash, and the key is read from the id's entry.
#pragma once

#include <array>
#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

#include "egraph/union_find.h"
#include "lang/graph.h"
#include "lang/shapes.h"

namespace tensat {

/// One e-node stored inside an e-class. `stamp` is the global insertion
/// counter used by efficient cycle filtering to pick "the last node added"
/// on a cycle, and the e-node's id in parent lists; `filtered` marks
/// membership in the filter list.
struct EClassNode {
  TNode node;
  uint32_t stamp{0};
  bool filtered{false};
};

struct EClass {
  std::vector<EClassNode> nodes;
  /// Parent e-nodes, by the e-node id each was inserted under (its stamp;
  /// EGraph keeps each e-node's hash-cons key and class by that id).
  /// Repaired lazily: rebuild() re-interns them and keeps one per canonical
  /// form.
  std::vector<uint32_t> parents;
  ValueInfo data;
  /// Bumped every time a merge joins another class's data into this one
  /// (whether or not the join changed anything — conservative). Lets the
  /// apply pipeline's commit phase prove "this class's analysis data is
  /// bit-identical to what the plan phase read" without storing a copy:
  /// find(c) == c and an unchanged epoch imply unchanged data, because
  /// merge() is the only ValueInfo mutator.
  uint32_t data_epoch{0};
};

class EGraph {
 public:
  EGraph()
      : op_index_(static_cast<size_t>(Op::kOpCount)),
        op_cache_(static_cast<size_t>(Op::kOpCount)) {}

  /// Adds an e-node (children are e-class ids; they get canonicalized).
  /// Returns nullopt if the analysis rejects it (shape check failure).
  std::optional<Id> try_add(TNode node);

  /// try_add, but with the analysis data supplied by the caller instead of
  /// re-running infer() — the commit half of the apply pipeline uses this to
  /// kill the double shape-infer on new nodes. Sound only when the caller
  /// can prove every child's analysis data is bit-identical to what the
  /// plan-time infer consumed (see NodeBuffer::commit's reuse guard); the
  /// result is then exactly what try_add would have produced. Never fails
  /// the shape check (the plan already passed it on identical inputs).
  Id try_add_planned(TNode node, const ValueInfo& data);

  /// Adds an e-node that must be valid; throws on shape-check failure.
  Id add(TNode node);

  /// Adds every node reachable from `g`'s roots; returns graph-id -> class-id.
  std::unordered_map<Id, Id> add_graph(const Graph& g);

  /// Unions two e-classes. Returns true if they were distinct (a real merge).
  /// The caller must rebuild() before relying on congruence invariants.
  bool merge(Id a, Id b);

  /// Restores the congruence and hash-consing invariants after merges.
  void rebuild();

  /// Points every id straight at its root without restoring congruence, so
  /// find() is a pure read until the next merge even with merges pending.
  /// The apply pipeline calls it between waves: a wave's planners read an
  /// e-graph that earlier waves committed to but did not rebuild.
  void compress_finds() { uf_.compress_all(); }

  [[nodiscard]] Id find(Id id) const { return uf_.find(id); }
  /// Canonicalizes an e-node's children.
  [[nodiscard]] TNode canonicalize(TNode node) const;

  /// Const hash-cons probe: the canonical e-class already containing `node`
  /// (children are e-class ids; they get canonicalized), or nullopt if the
  /// node is not in the e-graph. Never mutates. With the union-find fully
  /// compressed (rebuild() or compress_finds()) this is a pure read, safe
  /// for concurrent callers — the staging half of the apply pipeline's plan
  /// phase (see NodeBuffer).
  [[nodiscard]] std::optional<Id> lookup(TNode node) const;

  [[nodiscard]] const EClass& eclass(Id id) const { return classes_[find(id)]; }
  [[nodiscard]] const ValueInfo& data(Id id) const { return classes_[find(id)].data; }
  /// Merge counter of `id`'s canonical class (see EClass::data_epoch).
  [[nodiscard]] uint32_t data_epoch(Id id) const {
    return classes_[find(id)].data_epoch;
  }

  /// Ids of all canonical (live) e-classes.
  [[nodiscard]] std::vector<Id> canonical_classes() const;

  /// Canonical ids (sorted, deduplicated) of every e-class containing an
  /// e-node with operator `op`. Maintained incrementally: try_add() appends
  /// to the per-op bucket and rebuild() re-canonicalizes it, so the result
  /// may conservatively include classes whose only `op` nodes are filtered
  /// (harmless to the matcher: those classes simply yield no matches). This
  /// is the root-operator index the e-matching VM dispatches through.
  ///
  /// On a clean (rebuilt) e-graph the per-op bucket is served directly —
  /// allocation-free and safe for concurrent readers (the parallel search
  /// path). With un-rebuilt merges pending, the canonicalized bucket is
  /// computed once into a version-keyed cache and reused until the next
  /// state change; that dirty path is single-threaded only. The reference
  /// stays valid until the next non-const e-graph operation.
  [[nodiscard]] const std::vector<Id>& classes_with_op(Op op) const;

  /// Number of canonical e-classes (a counter: +1 per new class, -1 per
  /// real merge).
  [[nodiscard]] size_t num_classes() const { return num_classes_; }
  /// Number of e-nodes stored in canonical classes, excluding filtered ones
  /// (a counter: +1 per insert, -1 per duplicate a rebuild drops).
  [[nodiscard]] size_t num_enodes() const { return num_stored_ - num_filtered_; }
  /// Number of e-nodes including filtered ones (the paper's e-graph size):
  /// the number of keys in the hash-cons, which equals the stored e-nodes
  /// on a rebuilt e-graph.
  [[nodiscard]] size_t num_enodes_total() const { return hashcons_.size(); }

  /// Marks an e-node of `class_id` as filtered (adds it to the filter list).
  /// `index` addresses eclass(class_id).nodes.
  void set_filtered(Id class_id, size_t index);
  [[nodiscard]] size_t num_filtered() const { return num_filtered_; }

  /// Monotone counter bumped by every state change (add / merge); equal
  /// versions before and after an exploration iteration mean saturation.
  [[nodiscard]] uint64_t version() const { return version_; }

  /// Total e-class ids ever created (canonical or not). Ids are dense in
  /// [0, num_ids()), which is what lets the cycle analyses index their
  /// per-class state by id instead of hashing.
  [[nodiscard]] size_t num_ids() const { return uf_.size(); }

  /// The designated root e-class (set after add_graph via set_root).
  void set_root(Id id) { root_ = id; }
  [[nodiscard]] Id root() const { return find(root_); }

 private:
  /// An e-node's place in the hash-cons, by e-node id. `key` is the form
  /// under which the e-node sits in the hash-cons (as inserted, then as the
  /// last repair re-interned it) and `cls` the class it was inserted into.
  /// Once a repair finds an e-node congruent to another one's key, the two
  /// share that key: `forward` names the e-node it now stands for (itself
  /// while it owns its key), and its own `key` is no longer read.
  struct ENodeKey {
    TNode key;
    Id cls{kInvalidId};
    uint32_t forward{0};
  };

  /// An open-addressing table of ids: linear probing over a power-of-two
  /// number of slots, kept at most half full. Each slot holds an id, a class
  /// and the 32-bit hash of the id's key; the key lives outside the table
  /// and find() compares it, through the caller's predicate, only after the
  /// hashes match. erase() shifts the rest of the probe run back instead of
  /// leaving a tombstone, so erase-and-reinsert churn never lengthens runs.
  /// The hash-cons is one (ids are key owners, see ENodeKey); rebuild()'s
  /// deduplication passes reuse a second one as scratch.
  class FlatTable {
   public:
    static constexpr uint32_t kEmpty = UINT32_MAX;
    static constexpr size_t kNone = SIZE_MAX;
    struct Slot {
      uint32_t id{kEmpty};
      Id cls{kInvalidId};
      uint32_t hash{0};
    };

    [[nodiscard]] size_t size() const { return size_; }
    /// Empties the table and sizes it to take `n` entries without growing.
    void reset(size_t n);
    /// Index of the slot hashed `hash` whose id satisfies `same(id)`, or
    /// kNone. A pure read.
    template <typename Same>
    [[nodiscard]] size_t find(uint32_t hash, const Same& same) const;
    Slot& operator[](size_t i) { return slots_[i]; }
    const Slot& operator[](size_t i) const { return slots_[i]; }
    /// Adds an entry whose key is absent; doubles the table first if the
    /// entry would make it more than half full.
    void insert(const Slot& entry);
    /// Removes the entry at slot `i` (an index find() returned).
    void erase(size_t i);
    /// Occupied slots, counted by walking the table (for debug checks).
    [[nodiscard]] size_t count_occupied() const;

   private:
    static constexpr size_t kMinSlots = 16;
    void place(const Slot& entry);
    std::vector<Slot> slots_ = std::vector<Slot>(kMinSlots);
    size_t mask_ = kMinSlots - 1;
    size_t size_ = 0;
  };

  /// The hash-cons slot of `node` (canonical), or FlatTable::kNone.
  [[nodiscard]] size_t find_key(const TNode& node, uint32_t hash) const;
  /// The e-node whose key `enode` shares (path-halving walk of `forward`).
  uint32_t key_owner(uint32_t enode);
  void repair(Id id);
  /// Canonicalizes the children of canonical class `id`'s e-nodes and drops
  /// the e-nodes that thereby become duplicates.
  void dedup_nodes(Id id);
  static void join_data(ValueInfo& into, const ValueInfo& from);
  /// Creates a brand-new singleton class for `node` (already canonical and
  /// known absent from the hash-cons, whose hash is `hash`) carrying
  /// `data`. The shared tail of try_add / try_add_planned.
  Id insert_new_class(const TNode& node, uint32_t hash, ValueInfo data);

  /// classes_with_op's dirty-path memo: the canonicalized bucket for one op,
  /// valid while the e-graph stays at `version`.
  struct OpCacheEntry {
    uint64_t version{UINT64_MAX};
    std::vector<Id> ids;
  };

  UnionFind uf_;
  // op -> e-class ids with at least one such e-node; ids may be stale
  // (non-canonical) or duplicated between rebuilds, never missing.
  std::vector<std::vector<Id>> op_index_;
  mutable std::vector<OpCacheEntry> op_cache_;
  // Deque: eclass()/data() references must survive later try_add() appends.
  std::deque<EClass> classes_;
  // The hash-cons: one slot per key, holding the id of the e-node that owns
  // the key (the one that does not forward; every key has exactly one, so
  // repairs never leave a key behind) and the class holding it (canonical
  // once found).
  FlatTable hashcons_;
  /// One entry per e-node ever inserted, indexed by e-node id (= stamp).
  std::vector<ENodeKey> enode_keys_;
  /// One per entry of the parent list being repaired: the e-node owning the
  /// key the entry was re-interned under, and that key.
  struct Repaired {
    uint32_t owner;
    TNode form;
  };
  std::vector<Repaired> repaired_;
  /// Scratch index for repair()'s and dedup_nodes()' duplicate checks.
  FlatTable scratch_;
  std::vector<Id> pending_;
  /// Classes in which repair() found two e-nodes of the class congruent;
  /// rebuild() deduplicates them after its repair loop.
  std::vector<Id> congruent_;
  uint64_t version_{0};
  size_t num_classes_{0};
  size_t num_stored_{0};
  size_t num_filtered_{0};
  Id root_{kInvalidId};
};

/// A staging arena for would-be e-node additions against a *const* e-graph:
/// the plan half of the apply pipeline's plan/commit split. stage() shape-
/// checks and hash-conses candidate nodes without touching the e-graph;
/// nodes not already present get negative placeholder ids (is_staged) that
/// later staged nodes may use as children. commit() then replays a staged
/// node (children first) into the real e-graph through the ordinary try_add
/// path, so duplicates staged by concurrent planners collapse through the
/// real hash-cons.
///
/// Nothing may mutate the snapshot e-graph while staging, and its union-find
/// must be fully compressed (rebuild() or compress_finds()): stage() then
/// only performs pure reads, so any number of NodeBuffers can plan against
/// the same e-graph from different threads. The e-graph need not be clean:
/// with merges pending, lookup() can miss a node that is stored under a
/// stale key, and stage() then stages a duplicate that commit() adds and
/// the next rebuild() merges by congruence.
class NodeBuffer {
 public:
  explicit NodeBuffer(const EGraph& eg) : eg_(&eg) {}

  /// Plans adding `node`. Children may be canonical e-class ids or staged
  /// ids from this buffer. Returns the existing e-class id if the e-graph
  /// (or this buffer) already has the node, a fresh staged id otherwise, or
  /// nullopt if the analysis rejects it (shape check failure).
  std::optional<Id> stage(TNode node);

  /// Analysis data of a real e-class or a staged node.
  [[nodiscard]] const ValueInfo& data(Id id) const;

  /// True for placeholder ids handed out by stage(). Staged ids start at -2
  /// so they never collide with kInvalidId, which planning scratch buffers
  /// use as their "unset" sentinel.
  [[nodiscard]] static constexpr bool is_staged(Id id) { return id < kInvalidId; }

  /// Number of staged (not already present) nodes.
  [[nodiscard]] size_t size() const { return entries_.size(); }

  /// Commits the node behind `id` into `eg` (the same e-graph this buffer
  /// was planned against, possibly mutated since by earlier commits),
  /// children first, memoizing per entry. Real ids pass through find().
  /// Returns nullopt if a shape check fails at commit time — possible when
  /// intervening merges coarsened an analysis value the plan relied on.
  ///
  /// Analysis reuse: when every child's live analysis data is provably
  /// bit-identical to what stage()'s infer consumed (real children: still
  /// canonical + unchanged data_epoch; staged children: landed class data
  /// equals the planned data), the planned ValueInfo is handed to
  /// try_add_planned and the commit-time re-infer is skipped — infer() is
  /// deterministic, so the result is exactly what the re-infer would
  /// produce. Any drift falls back to the full try_add re-infer path, shape
  /// failures included.
  std::optional<Id> commit(EGraph& eg, Id id);

  /// The snapshot this buffer stages against.
  [[nodiscard]] const EGraph& egraph() const { return *eg_; }

 private:
  struct Entry {
    TNode node;  // children: canonical class ids or staged ids
    ValueInfo data;
    /// Per-child EGraph::data_epoch captured at stage() time (0 for staged
    /// children — their guard compares landed data directly). Parallel to
    /// node.children; powers commit()'s analysis-reuse proof.
    std::array<uint32_t, kMaxArity> child_epochs{};
    Id committed{kInvalidId};
    bool commit_failed{false};
  };
  [[nodiscard]] static constexpr size_t index_of(Id id) {
    return static_cast<size_t>(-(id + 2));
  }
  [[nodiscard]] static constexpr Id id_of(size_t index) {
    return -static_cast<Id>(index) - 2;
  }

  const EGraph* eg_;
  std::vector<Entry> entries_;
  std::unordered_map<TNode, Id, TNodeHash> memo_;  // staged-form node -> id
};

}  // namespace tensat
