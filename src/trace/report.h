// Shared human-readable telemetry formatting: one implementation of the
// phase-time lines, the per-rule profile table, and the per-iteration growth
// timeline, used by the examples and the tensat_profile CLI. Before this
// header each example hand-rolled its own printf block (and nasrnn_cell
// lumped dmap + cycle sweep into a single "cycles" number); keeping the
// format in one place keeps the tools comparable.
#pragma once

#include <cstdio>

#include "optimizer/optimizer.h"

namespace tensat::trace {

/// One line: `<label>: search 0.123s, apply 0.456s, rebuild ..., dmap ...,
/// cycle sweep ..., other ... (of <total>s)`. The five phases plus the named
/// remainder (ExploreStats::other_seconds) are the full wall-clock
/// decomposition of the total — dmap and cycle sweep printed separately,
/// never lumped.
void print_explore_phases(std::FILE* out, const ExploreStats& stats,
                          const char* label);

/// One line: `<label>: reach ..., reduce ..., lp-build ..., solve ...,
/// stitch ... (<cores> cores, largest <vars> vars of <classes> classes)`.
void print_extract_phases(std::FILE* out, const ExtractStats& stats,
                          const char* label);

/// The per-rule profile table, sorted by attributed seconds (descending).
/// Rules that never matched and consumed no measurable time are elided.
/// `top_n` truncates the table (0 = no truncation); a final line reports how
/// many rules were elided or cut.
void print_rule_profile(std::FILE* out, const ExploreStats& stats,
                        size_t top_n = 0);

/// The per-iteration e-graph growth timeline (classes / e-nodes / hash-cons
/// size / filtered / matches / applications / seconds per iteration).
void print_growth_timeline(std::FILE* out, const ExploreStats& stats);

}  // namespace tensat::trace
