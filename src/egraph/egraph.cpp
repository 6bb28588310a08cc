#include "egraph/egraph.h"

#include <algorithm>

#include "support/check.h"

namespace tensat {
namespace {

/// Folds a 64-bit hash to the 32 bits a table slot keeps. The high half of
/// the product mixes every input bit, so the low bits that pick a slot are
/// well spread.
uint32_t fold32(uint64_t h) {
  return static_cast<uint32_t>((h * 0x9e3779b97f4a7c15ull) >> 32);
}

uint32_t hash32(const TNode& node) { return fold32(TNodeHash{}(node)); }

}  // namespace

void EGraph::FlatTable::reset(size_t n) {
  size_t slots = kMinSlots;
  while (slots < 2 * n) slots *= 2;
  slots_.assign(slots, Slot{});
  mask_ = slots - 1;
  size_ = 0;
}

template <typename Same>
size_t EGraph::FlatTable::find(uint32_t hash, const Same& same) const {
  for (size_t i = hash & mask_;; i = (i + 1) & mask_) {
    const Slot& slot = slots_[i];
    if (slot.id == kEmpty) return kNone;
    if (slot.hash == hash && same(slot.id)) return i;
  }
}

void EGraph::FlatTable::place(const Slot& entry) {
  size_t i = entry.hash & mask_;
  while (slots_[i].id != kEmpty) i = (i + 1) & mask_;
  slots_[i] = entry;
}

void EGraph::FlatTable::insert(const Slot& entry) {
  if (2 * (size_ + 1) > slots_.size()) {
    std::vector<Slot> old(2 * slots_.size());
    old.swap(slots_);
    mask_ = slots_.size() - 1;
    for (const Slot& slot : old)
      if (slot.id != kEmpty) place(slot);
  }
  place(entry);
  ++size_;
}

void EGraph::FlatTable::erase(size_t i) {
  // Backward shift: walk the rest of the probe run and move back every
  // entry whose home slot does not lie cyclically in (i, j], so no probe
  // for it crosses the hole.
  for (size_t j = (i + 1) & mask_; slots_[j].id != kEmpty; j = (j + 1) & mask_) {
    const size_t home = slots_[j].hash & mask_;
    const bool stays = i <= j ? (i < home && home <= j) : (i < home || home <= j);
    if (stays) continue;
    slots_[i] = slots_[j];
    i = j;
  }
  slots_[i] = Slot{};
  --size_;
}

size_t EGraph::FlatTable::count_occupied() const {
  return static_cast<size_t>(std::count_if(
      slots_.begin(), slots_.end(), [](const Slot& s) { return s.id != kEmpty; }));
}

TNode EGraph::canonicalize(TNode node) const {
  for (Id& c : node.children) c = find(c);
  return node;
}

size_t EGraph::find_key(const TNode& node, uint32_t hash) const {
  return hashcons_.find(hash,
                        [&](uint32_t enode) { return enode_keys_[enode].key == node; });
}

std::optional<Id> EGraph::lookup(TNode node) const {
  node = canonicalize(node);
  const size_t slot = find_key(node, hash32(node));
  if (slot == FlatTable::kNone) return std::nullopt;
  return find(hashcons_[slot].cls);
}

Id EGraph::insert_new_class(const TNode& node, uint32_t hash, ValueInfo data) {
  const Id id = uf_.make_set();
  TENSAT_CHECK(id == static_cast<Id>(classes_.size()), "class id mismatch");
  classes_.emplace_back();
  EClass& cls = classes_[id];
  cls.data = std::move(data);
  // The e-node's id is its stamp: both count insertions.
  const auto enode = static_cast<uint32_t>(enode_keys_.size());
  enode_keys_.push_back(ENodeKey{node, id, enode});
  cls.nodes.push_back(EClassNode{node, enode, false});
  op_index_[static_cast<size_t>(node.op)].push_back(id);
  for (Id c : node.children) classes_[find(c)].parents.push_back(enode);
  hashcons_.insert(FlatTable::Slot{enode, id, hash});
  ++num_classes_;
  ++num_stored_;
  ++version_;
  return id;
}

std::optional<Id> EGraph::try_add(TNode node) {
  node = canonicalize(node);
  const uint32_t hash = hash32(node);
  const size_t slot = find_key(node, hash);
  if (slot != FlatTable::kNone) return find(hashcons_[slot].cls);

  // E-class analysis: infer the new node's data from its children's.
  const ValueInfo* inputs[kMaxArity];
  for (size_t i = 0; i < node.children.size(); ++i)
    inputs[i] = &classes_[find(node.children[i])].data;
  auto data = infer(node, span<const ValueInfo* const>(inputs, node.children.size()));
  if (!data.has_value()) return std::nullopt;  // shape check failed
  return insert_new_class(node, hash, std::move(*data));
}

Id EGraph::try_add_planned(TNode node, const ValueInfo& data) {
  node = canonicalize(node);
  const uint32_t hash = hash32(node);
  const size_t slot = find_key(node, hash);
  if (slot != FlatTable::kNone) return find(hashcons_[slot].cls);
  return insert_new_class(node, hash, data);
}

Id EGraph::add(TNode node) {
  auto id = try_add(std::move(node));
  TENSAT_CHECK(id.has_value(), "e-graph add failed shape check");
  return *id;
}

std::unordered_map<Id, Id> EGraph::add_graph(const Graph& g) {
  TENSAT_CHECK(g.kind() == GraphKind::kConcrete, "cannot add a pattern graph");
  std::unordered_map<Id, Id> mapping;
  for (Id gid : g.topo_order()) {
    TNode node = g.node(gid);
    for (Id& c : node.children) c = mapping.at(c);
    mapping.emplace(gid, add(node));
  }
  return mapping;
}

void EGraph::join_data(ValueInfo& into, const ValueInfo& from) {
  TENSAT_CHECK(into.kind == from.kind, "analysis merge: kind mismatch ("
                                           << to_string(into) << " vs "
                                           << to_string(from) << ")");
  TENSAT_CHECK(into.shape == from.shape && into.shape2 == from.shape2,
               "analysis merge: shape mismatch (" << to_string(into) << " vs "
                                                  << to_string(from) << ")");
  if (into.kind == VKind::kNum)
    TENSAT_CHECK(into.num == from.num, "analysis merge: integer mismatch");
  if (into.kind == VKind::kStr)
    TENSAT_CHECK(into.str == from.str, "analysis merge: string mismatch");
  // Equivalent terms compute the same value, so weight-constness discovered
  // through any representation holds for the whole class.
  into.weight_only = into.weight_only || from.weight_only;
  // Concat histories join to equality-or-empty: a class only promises a
  // split boundary that every representation agrees on. (A "keep the richer
  // one" join lets extraction pick a member that cannot actually honor the
  // boundary, which breaks reconstruction of the selected graph.)
  if (into.hist != from.hist) into.hist.clear();
}

bool EGraph::merge(Id a, Id b) {
  a = find(a);
  b = find(b);
  if (a == b) return false;
  const Id root = uf_.unite(a, b);
  const Id other = (root == a) ? b : a;
  EClass& winner = classes_[root];
  EClass& loser = classes_[other];
  join_data(winner.data, loser.data);
  ++winner.data_epoch;  // conservative: any join invalidates plan-time reads
  std::move(loser.nodes.begin(), loser.nodes.end(), std::back_inserter(winner.nodes));
  std::move(loser.parents.begin(), loser.parents.end(),
            std::back_inserter(winner.parents));
  loser.nodes.clear();
  loser.nodes.shrink_to_fit();
  loser.parents.clear();
  loser.parents.shrink_to_fit();
  pending_.push_back(root);
  --num_classes_;
  ++version_;
  return true;
}

void EGraph::rebuild() {
  while (!pending_.empty()) {
    std::vector<Id> todo;
    todo.swap(pending_);
    std::sort(todo.begin(), todo.end());
    todo.erase(std::unique(todo.begin(), todo.end()), todo.end());
    for (Id id : todo) repair(find(id));
  }
  // Classes two of whose own e-nodes became congruent: repair() had nothing
  // to merge, so it left both copies in the class. Deduplicate each such
  // class once, after every merge has landed.
  for (Id& id : congruent_) id = find(id);
  std::sort(congruent_.begin(), congruent_.end());
  congruent_.erase(std::unique(congruent_.begin(), congruent_.end()),
                   congruent_.end());
  for (Id id : congruent_) dedup_nodes(id);
  congruent_.clear();
  // Compact the op-index: merges leave stale (now non-canonical) ids behind;
  // re-canonicalizing here keeps later classes_with_op() calls cheap.
  for (std::vector<Id>& bucket : op_index_) {
    for (Id& id : bucket) id = find(id);
    std::sort(bucket.begin(), bucket.end());
    bucket.erase(std::unique(bucket.begin(), bucket.end()), bucket.end());
  }
  // Fully compress the union-find so find() on the clean e-graph is a pure
  // read; the parallel pattern search depends on this (support/parallel.h).
  uf_.compress_all();
#ifndef NDEBUG
  TENSAT_CHECK(hashcons_.count_occupied() == hashcons_.size(),
               "hash-cons size counter drifted");
  TENSAT_CHECK(hashcons_.size() == num_stored_,
               "hash-cons keys and stored e-nodes differ after rebuild");
#endif
}

uint32_t EGraph::key_owner(uint32_t enode) {
  while (enode_keys_[enode].forward != enode) {
    uint32_t& next = enode_keys_[enode].forward;
    next = enode_keys_[next].forward;
    enode = next;
  }
  return enode;
}

void EGraph::repair(Id id) {
  EClass& cls = classes_[id];

  // Re-intern parents under their canonical forms; congruent parents merge.
  // merge() adds no e-node, so `entry` stays valid across the loop body.
  const std::vector<uint32_t> parents = std::move(cls.parents);
  cls.parents.clear();
  repaired_.clear();
  for (uint32_t p : parents) {
    const uint32_t owner = key_owner(p);
    ENodeKey& entry = enode_keys_[owner];
    const size_t slot = hashcons_.find(hash32(entry.key),
                                       [owner](uint32_t e) { return e == owner; });
    const TNode form = canonicalize(entry.key);
    if (form == entry.key) {
      // Still canonical: erasing and re-interning it would find nothing
      // else under this key and put it back where it was.
      hashcons_[slot].cls = find(entry.cls);
      repaired_.push_back(Repaired{owner, form});
      continue;
    }
    hashcons_.erase(slot);
    const uint32_t hash = hash32(form);
    const size_t found = find_key(form, hash);
    if (found != FlatTable::kNone) {
      FlatTable::Slot& other = hashcons_[found];
      // No merge means the two congruent e-nodes are already in one class.
      if (!merge(entry.cls, other.cls)) congruent_.push_back(entry.cls);
      other.cls = find(entry.cls);
      entry.forward = other.id;  // share the key found
      repaired_.push_back(Repaired{other.id, form});
    } else {
      entry.key = form;
      hashcons_.insert(FlatTable::Slot{owner, find(entry.cls), hash});
      repaired_.push_back(Repaired{owner, form});
    }
  }
  // Deduplicate the repaired parent list: keep the first parent of each
  // canonical form, in list order. Two entries of one form were given the
  // same owner, so the scratch index is keyed by owner. One owner can be
  // given two forms, though: a merge in the loop above can make its key
  // stale between two visits (a parent listed twice), and the second visit
  // re-keys it. An owner's forms only ever move on, never back, so an entry
  // repeats an earlier one exactly when the owner's latest earlier entry
  // has the same form.
  EClass& cls2 = classes_[find(id)];  // `merge` above may have moved us
  scratch_.reset(parents.size());
  for (size_t i = 0; i < parents.size(); ++i) {
    const Repaired& r = repaired_[i];
    const uint32_t hash = fold32(r.owner);
    const size_t seen = scratch_.find(
        hash, [&](uint32_t j) { return repaired_[j].owner == r.owner; });
    if (seen == FlatTable::kNone) {
      scratch_.insert(FlatTable::Slot{static_cast<uint32_t>(i), kInvalidId, hash});
    } else if (!(repaired_[scratch_[seen].id].form == r.form)) {
      scratch_[seen].id = static_cast<uint32_t>(i);
    } else {
      continue;
    }
    cls2.parents.push_back(parents[i]);
  }

  dedup_nodes(find(id));  // `merge` above may have moved us
}

void EGraph::dedup_nodes(Id id) {
  // Canonicalize and deduplicate the class's own nodes in place, keeping
  // the first of each canonical form. Duplicates keep the earliest stamp; a
  // node is filtered if any duplicate was (the filter list identifies nodes
  // structurally).
  std::vector<EClassNode>& nodes = classes_[id].nodes;
  scratch_.reset(nodes.size());
  size_t kept = 0;
  for (size_t i = 0; i < nodes.size(); ++i) {
    EClassNode entry = nodes[i];
    entry.node = canonicalize(entry.node);
    const uint32_t hash = hash32(entry.node);
    const size_t seen = scratch_.find(
        hash, [&](uint32_t k) { return nodes[k].node == entry.node; });
    if (seen == FlatTable::kNone) {
      scratch_.insert(FlatTable::Slot{static_cast<uint32_t>(kept), kInvalidId, hash});
      nodes[kept++] = entry;
      continue;
    }
    EClassNode& into = nodes[scratch_[seen].id];
    into.stamp = std::min(into.stamp, entry.stamp);
    if (entry.filtered && !into.filtered) {
      into.filtered = true;
    } else if (entry.filtered) {
      --num_filtered_;  // collapsed two filtered copies into one
    }
    --num_stored_;
  }
  nodes.resize(kept);
  nodes.shrink_to_fit();  // merge()'s appends leave up to 2x slack
}

std::vector<Id> EGraph::canonical_classes() const {
  std::vector<Id> out;
  for (Id id = 0; id < static_cast<Id>(classes_.size()); ++id)
    if (find(id) == id) out.push_back(id);
  return out;
}

const std::vector<Id>& EGraph::classes_with_op(Op op) const {
  const std::vector<Id>& bucket = op_index_[static_cast<size_t>(op)];
  // On a clean e-graph the bucket is already canonical, sorted, and unique:
  // rebuild() compacted it, and try_add() only appends fresh (strictly
  // increasing, canonical) ids. Only un-rebuilt merges can make it stale.
  if (pending_.empty()) return bucket;
  // Dirty path: canonicalize once per (op, version) into the cache so
  // repeated queries between state changes are allocation-free. version_
  // bumps on every add/merge/filter, so staleness is impossible.
  OpCacheEntry& cache = op_cache_[static_cast<size_t>(op)];
  if (cache.version != version_) {
    cache.ids = bucket;
    for (Id& id : cache.ids) id = find(id);
    std::sort(cache.ids.begin(), cache.ids.end());
    cache.ids.erase(std::unique(cache.ids.begin(), cache.ids.end()),
                    cache.ids.end());
    cache.version = version_;
  }
  return cache.ids;
}

std::optional<Id> NodeBuffer::stage(TNode node) {
  // Canonicalize the real children against the (clean) snapshot; staged
  // children are already canonical by construction.
  bool all_real = true;
  for (Id& c : node.children) {
    if (is_staged(c)) {
      all_real = false;
    } else {
      c = eg_->find(c);
    }
  }
  // A node whose children all exist can itself already exist in the e-graph.
  if (all_real) {
    if (auto existing = eg_->lookup(node)) return existing;
  }
  auto memo = memo_.find(node);
  if (memo != memo_.end()) return memo->second;

  // E-class analysis over mixed real/staged children: same shape-check gate
  // as EGraph::try_add, evaluated against the planned data.
  const ValueInfo* inputs[kMaxArity];
  for (size_t i = 0; i < node.children.size(); ++i) inputs[i] = &data(node.children[i]);
  auto inferred = infer(node, span<const ValueInfo* const>(inputs, node.children.size()));
  if (!inferred.has_value()) return std::nullopt;  // shape check failed

  // Record each real child's data epoch: commit() uses it to prove the
  // inputs this infer just consumed are still bit-identical at commit time.
  std::array<uint32_t, kMaxArity> child_epochs{};
  for (size_t i = 0; i < node.children.size(); ++i) {
    const Id c = node.children[i];
    child_epochs[i] = is_staged(c) ? 0 : eg_->data_epoch(c);
  }

  const Id id = id_of(entries_.size());
  memo_.emplace(node, id);
  entries_.push_back(
      Entry{node, std::move(*inferred), child_epochs, kInvalidId, false});
  return id;
}

const ValueInfo& NodeBuffer::data(Id id) const {
  if (!is_staged(id)) return eg_->data(id);
  return entries_[index_of(id)].data;
}

std::optional<Id> NodeBuffer::commit(EGraph& eg, Id id) {
  if (!is_staged(id)) return eg.find(id);
  Entry& entry = entries_[index_of(id)];
  if (entry.committed != kInvalidId) return eg.find(entry.committed);
  if (entry.commit_failed) return std::nullopt;
  TNode node = entry.node;  // entry.node stays in staged form (re-commit safe)
  // Reuse proof: if every child's live analysis data is bit-identical to
  // what stage()'s infer consumed, the planned data *is* the re-infer
  // result (infer is deterministic), and the second infer can be skipped.
  bool reuse = true;
  for (size_t i = 0; i < node.children.size(); ++i) {
    const Id orig = node.children[i];
    auto real = commit(eg, orig);
    if (!real.has_value()) {
      entry.commit_failed = true;
      return std::nullopt;
    }
    if (!is_staged(orig)) {
      // Real child: still its own canonical representative and untouched by
      // any merge since plan time => data unchanged (merge is the only
      // ValueInfo mutator and always bumps data_epoch).
      if (*real != orig || eg.data_epoch(orig) != entry.child_epochs[i])
        reuse = false;
    } else {
      // Staged child: it may have landed in a pre-existing class whose data
      // drifted from the plan (merges can coarsen hist / set weight_only,
      // and a congruent node added via a different route can differ more).
      // Compare the landed data against the planned data outright.
      if (!(eg.data(*real) == entries_[index_of(orig)].data)) reuse = false;
    }
    node.children[i] = *real;
  }
  std::optional<Id> added;
  if (reuse) {
    added = eg.try_add_planned(node, entry.data);
  } else {
    added = eg.try_add(node);
    if (!added.has_value()) {
      entry.commit_failed = true;
      return std::nullopt;
    }
  }
  entry.committed = *added;
  return added;
}

void EGraph::set_filtered(Id class_id, size_t index) {
  EClass& cls = classes_[find(class_id)];
  TENSAT_CHECK(index < cls.nodes.size(), "set_filtered: bad node index");
  if (!cls.nodes[index].filtered) {
    cls.nodes[index].filtered = true;
    ++num_filtered_;
    ++version_;
  }
}

}  // namespace tensat
