// Text serialization for tensor graphs. The format is line-based and
// explicitly shared (one line per node, children by id), so DAGs round-trip
// without the exponential blowup of plain S-expressions:
//
//     tensat-graph v1
//     0 str x@64_512
//     1 input 0
//     2 num 0
//     3 str w@512_512
//     4 weight 3
//     5 matmul 2 1 4
//     roots 5
//
// save_graph writes node ids dense and topologically ordered (children
// first). Concrete graphs re-run shape inference on load, so a corrupted file
// cannot produce an ill-formed graph.
//
// What load_graph accepts, checked in one pass over the bytes:
//   * Lines end at '\n'. The first line is exactly the header, with nothing
//     around it (so a "\r\n" header line is rejected). Empty lines before
//     the roots line are skipped.
//   * Tokens are separated by runs of the "C" locale's whitespace: space,
//     \t, \v, \f and \r. Every other byte, NUL and bytes >= 0x80
//     included, is part of a token. So a body line may end in "\r", and a
//     line of whitespace only is a line with no node id (rejected).
//   * Node, child and root ids are whole-token decimal ints: an optional
//     '-', digits, in range of int. Node ids must be >= 0 and unique and
//     need not be dense or ordered; children and roots must name a node on
//     an earlier line.
//   * A num payload is a whole-token decimal int64 that may also start with
//     '+'. A str or var payload is one token. Payload lines take nothing
//     after the payload.
//   * Op lines take the op's children (arity is checked by Graph::add).
//   * The roots line ("roots" then one or more ids) ends the graph; only
//     whitespace may follow it.
// Anything else throws tensat::Error.
#pragma once

#include <iosfwd>
#include <string>

#include "lang/graph.h"

namespace tensat {

/// Writes the subgraph reachable from `g`'s roots.
void save_graph(const Graph& g, std::ostream& os);
std::string save_graph_to_string(const Graph& g);

/// Parses a graph in the format above. Throws tensat::Error on malformed
/// input (unknown ops, dangling ids, shape-check failures, bad header).
/// The stream form reads `is` to its end, then scans the text.
Graph load_graph(std::istream& is, GraphKind kind = GraphKind::kConcrete);
Graph load_graph_from_string(const std::string& text,
                             GraphKind kind = GraphKind::kConcrete);

}  // namespace tensat
