// Correctness checks on optimized outputs. They run outside every timed
// region; a failed check counts the operations that produced the output as
// failed.
#pragma once

#include <cstdint>
#include <string>

#include "lang/graph.h"

namespace perfbench {

/// Checks `optimized` (whose extraction reported `reported_cost`) against
/// `input`. Returns "" when every check passes, else the first failure:
///   * the reported cost is the graph's cost and no higher than the input's;
///   * the graph round-trips through save and load, unchanged and acyclic;
///   * without a `merge` op, it computes the input's function through the
///     reference interpreter on data seeded by `seed`.
/// `interpreted`, when non-null, is set to whether the interpreter ran.
std::string check_output(const tensat::Graph& input, const tensat::Graph& optimized,
                         double reported_cost, uint64_t seed, bool* interpreted = nullptr);

}  // namespace perfbench
