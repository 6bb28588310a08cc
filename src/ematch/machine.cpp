#include "ematch/machine.h"

#include <cstdint>
#include <unordered_map>

namespace tensat::ematch {
namespace {

/// One saved choice point: the kBind/kScan at `pc` may still have
/// alternatives starting at e-node (resp. candidate-class) index `next`.
struct Choice {
  uint32_t pc;
  uint32_t next;
};

struct VM {
  const EGraph& eg;
  const Program& prog;
  size_t matches_left;
  size_t steps_left;
  std::vector<Id> regs;
  /// Registers copied into a match row, in row order (MatchRows).
  std::vector<Reg> row_regs;
  std::vector<Choice> stack;
  /// Candidate root classes per kScan instruction, keyed by pc. Computed
  /// lazily on first use so single-pattern programs pay nothing.
  std::unordered_map<uint32_t, std::vector<Id>> scan_candidates;

  /// Satisfies the kBind at `pc` using the first admissible e-node at index
  /// >= `start` of the inspected class: writes the node's canonicalized
  /// children into the output registers and records the resumption point.
  /// Returns false when no alternative is left (or the step budget ran out).
  bool bind_from(uint32_t pc, uint32_t start) {
    const Instruction& in = prog.insts[pc];
    const std::vector<EClassNode>& nodes = eg.eclass(regs[in.reg]).nodes;
    for (uint32_t i = start; i < nodes.size(); ++i) {
      const EClassNode& entry = nodes[i];
      if (entry.filtered || entry.node.op != in.op) continue;
      if (steps_left == 0) return false;
      --steps_left;
      for (size_t k = 0; k < entry.node.children.size(); ++k)
        regs[in.out + k] = eg.find(entry.node.children[k]);
      stack.push_back(Choice{pc, i + 1});
      return true;
    }
    return false;
  }

  /// Satisfies the kScan at `pc` with the candidate class at index >= `start`
  /// of its candidate list, recording the resumption point. Candidates come
  /// from the op-index (all canonical classes for leaf-rooted sub-patterns).
  bool scan_from(uint32_t pc, uint32_t start) {
    auto it = scan_candidates.find(pc);
    if (it == scan_candidates.end()) {
      const Op op = prog.insts[pc].op;
      it = scan_candidates
               .emplace(pc, op_is_leaf(op) ? eg.canonical_classes()
                                           : eg.classes_with_op(op))
               .first;
    }
    const std::vector<Id>& candidates = it->second;
    if (start >= candidates.size()) return false;
    if (steps_left == 0) return false;
    --steps_left;
    regs[prog.insts[pc].reg] = candidates[start];
    stack.push_back(Choice{pc, start + 1});
    return true;
  }

  /// Runs the program from instruction 0 with the registers as currently
  /// initialized, invoking `on_match()` once per complete match. Returns
  /// false iff a budget ran out (caller must stop the whole search, matching
  /// the naive matcher's shared-budget behavior).
  template <typename OnMatch>
  bool run(OnMatch&& on_match) {
    stack.clear();
    uint32_t pc = 0;
    for (;;) {
      // Forward execution until the program fails or completes.
      bool failed = false;
      while (pc < prog.insts.size()) {
        const Instruction& in = prog.insts[pc];
        bool ok = true;
        switch (in.kind) {
          case Instruction::Kind::kBind:
            ok = bind_from(pc, 0);
            if (!ok && steps_left == 0) return false;
            break;
          case Instruction::Kind::kScan:
            ok = scan_from(pc, 0);
            if (!ok && steps_left == 0) return false;
            break;
          case Instruction::Kind::kCompare:
            ok = regs[in.reg] == regs[in.other];
            break;
          case Instruction::Kind::kCheckNum: {
            const ValueInfo& d = eg.data(regs[in.reg]);
            ok = d.kind == VKind::kNum && d.num == in.num;
            break;
          }
          case Instruction::Kind::kCheckStr: {
            const ValueInfo& d = eg.data(regs[in.reg]);
            ok = d.kind == VKind::kStr && d.str == in.str;
            break;
          }
        }
        if (!ok) {
          failed = true;
          break;
        }
        ++pc;
      }
      if (!failed) {
        if (matches_left == 0) return false;
        --matches_left;
        on_match();
      }
      // Backtrack to the most recent choice point with an alternative left.
      for (;;) {
        if (stack.empty()) return true;
        const Choice c = stack.back();
        stack.pop_back();
        const bool resumed = prog.insts[c.pc].kind == Instruction::Kind::kScan
                                 ? scan_from(c.pc, c.next)
                                 : bind_from(c.pc, c.next);
        if (resumed) {
          pc = c.pc + 1;
          break;
        }
        if (steps_left == 0) return false;
      }
    }
  }

  /// Appends the current registers to `out` as one row.
  void emit(MatchRows& out) const {
    for (Reg r : row_regs) out.ids.push_back(regs[r]);
  }
};

/// A VM for `prog` with its registers cleared and its row layout set: the
/// root registers (register 0 for a single-pattern program, root_regs for a
/// joint one), then the variable registers in prog.vars order.
VM make_vm(const EGraph& eg, const Program& prog, const MatchLimits& limits) {
  VM vm{eg,
        prog,
        limits.max_matches == 0 ? SIZE_MAX : limits.max_matches,
        limits.max_steps == 0 ? SIZE_MAX : limits.max_steps,
        std::vector<Id>(static_cast<size_t>(prog.num_regs), kInvalidId),
        {},
        {},
        {}};
  if (prog.is_joint())
    vm.row_regs = prog.root_regs;
  else
    vm.row_regs.push_back(0);
  for (const auto& [var, reg] : prog.vars) vm.row_regs.push_back(reg);
  return vm;
}

}  // namespace

MatchRows search(const EGraph& eg, const Program& prog, const MatchLimits& limits) {
  VM vm = make_vm(eg, prog, limits);
  MatchRows rows;
  rows.width = vm.row_regs.size();
  // Leaf-rooted patterns scan every class; operator roots borrow the op-index
  // bucket directly (classes_with_op returns a reference on a clean e-graph,
  // so the hot path allocates nothing).
  std::vector<Id> leaf_candidates;
  if (op_is_leaf(prog.root_op)) leaf_candidates = eg.canonical_classes();
  const std::vector<Id>& candidates = op_is_leaf(prog.root_op)
                                          ? leaf_candidates
                                          : eg.classes_with_op(prog.root_op);
  for (Id cls : candidates) {
    // Register 0 holds the candidate root class.
    vm.regs[0] = eg.find(cls);
    if (!vm.run([&] { vm.emit(rows); })) break;
  }
  return rows;
}

MatchRows search_joint(const EGraph& eg, const Program& prog,
                       const MatchLimits& limits) {
  VM vm = make_vm(eg, prog, limits);
  MatchRows rows;
  rows.width = vm.row_regs.size();
  vm.run([&] { vm.emit(rows); });
  return rows;
}

size_t search_work_estimate(const EGraph& eg,
                            const std::vector<const Program*>& progs) {
  // A program rooted at a leaf op scans every class (num_classes() is a
  // counter); any other scans its op's bucket.
  const auto candidates_for = [&](Op op) {
    return op_is_leaf(op) ? eg.num_classes() : eg.classes_with_op(op).size();
  };
  size_t work = 0;
  for (const Program* prog : progs) {
    if (prog->is_joint()) {
      // Nested scans multiply rather than add, but by then the sweep is big
      // enough to parallelize anyway; the sum is a cheap lower bound.
      for (const Instruction& in : prog->insts)
        if (in.kind == Instruction::Kind::kScan) work += candidates_for(in.op);
    } else {
      work += candidates_for(prog->root_op);
    }
  }
  return work;
}

}  // namespace tensat::ematch
