// Compiled e-matching (the abstract machine of "egg: Fast and Extensible
// Equality Saturation", Willsey et al. 2021, §B; after de Moura & Bjørner's
// "Efficient E-Matching for SMT Solvers"). A pattern is lowered once into a
// flat instruction program; the register-based VM in machine.h then executes
// the program against the e-graph. This replaces re-interpreting the pattern
// AST per candidate e-class (the naive backtracker kept in rewrite/matcher.h
// as a reference oracle).
//
// Instruction set:
//   bind r, op, out   iterate the unfiltered e-nodes of class regs[r] whose
//                     operator is `op`; for each, write its canonicalized
//                     child classes into regs[out..out+arity) and continue.
//                     The only backtracking point.
//   compare a, b      succeed iff regs[a] and regs[b] are the same class.
//                     Emitted for repeated pattern variables.
//   check_num r, n    succeed iff class regs[r]'s analysis value is the
//                     integer literal n (pattern leaves like activation 0).
//   check_str r, s    likewise for string literals (permutations, shapes).
//   scan r, op        (joint programs only) iterate the e-graph's candidate
//                     classes for a sub-pattern root — classes_with_op(op),
//                     or every canonical class for leaf roots — writing each
//                     into regs[r]. A backtracking point, like bind.
//   yield             implicit at program end: copy the root register(s)
//                     and the variable registers into one match row
//                     (ematch::MatchRows in machine.h).
//
// Multi-pattern rules additionally compile through compile_joint_pattern:
// all source patterns of a rule become ONE program whose sub-pattern roots
// are driven by kScan instructions. The compiler's variable map spans the
// sub-patterns, so a variable shared between sources binds once and its later
// occurrences become kCompare constraints — the cross-pattern pruning that
// replaces the post-hoc Cartesian-product join of independent match sets.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "lang/graph.h"
#include "lang/node.h"
#include "support/symbol.h"

namespace tensat::ematch {

/// Index of a VM register. Registers hold canonical e-class ids.
using Reg = int32_t;

struct Instruction {
  enum class Kind : uint8_t { kBind, kCompare, kCheckNum, kCheckStr, kScan };
  Kind kind{Kind::kBind};
  Reg reg{0};      // register inspected (kScan: written) by this instruction
  Op op{Op::kNum}; // kBind: operator the e-node must have; kScan: root op of
                   // the sub-pattern (leaf ops mean "every canonical class")
  Reg out{0};      // kBind: first register receiving the node's children
  Reg other{0};    // kCompare: earlier register that must hold the same class
  int64_t num{0};  // kCheckNum: required integer value
  Symbol str{};    // kCheckStr: required string value
};

struct Program {
  std::vector<Instruction> insts;
  Reg num_regs{1};  // register 0 holds the candidate root class
  /// Operator of the pattern root. For operator roots the searcher consults
  /// the e-graph's op-index and only visits classes that contain the op;
  /// leaf roots (kVar / kNum / kStr) fall back to scanning every class.
  Op root_op{Op::kVar};
  /// (variable, register) pairs to read out at yield, in first-occurrence
  /// DFS order — the same binding order the naive matcher produces.
  std::vector<std::pair<Symbol, Reg>> vars;
  /// Joint programs only: the register holding each sub-pattern's root class,
  /// in source order. Empty for single-pattern programs (whose root lives in
  /// register 0, driven by the searcher's candidate loop rather than kScan).
  std::vector<Reg> root_regs;

  [[nodiscard]] bool is_joint() const { return !root_regs.empty(); }
};

/// Lowers the pattern rooted at `root` of pattern graph `pat` into a program.
/// Shared operator subpatterns are expanded per edge (tree semantics), which
/// matches the naive matcher's enumeration multiplicity exactly; repeated
/// variables compile to kCompare constraints.
Program compile_pattern(const Graph& pat, Id root);

/// Lowers all source patterns of one multi-pattern rule into a single joint
/// program: each root in `roots` gets a kScan over its candidate classes,
/// then its sub-pattern's instructions. The variable map is shared across
/// sub-patterns, so variables occurring in several sources bind once and
/// prune candidate combinations during the search (instead of the post-hoc
/// Cartesian-product compatibility check). Executed via search_joint().
Program compile_joint_pattern(const Graph& pat, const std::vector<Id>& roots);

/// Human-readable listing of the program, for tests and diagnostics.
std::string to_string(const Program& prog);

}  // namespace tensat::ematch
