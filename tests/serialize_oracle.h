// The line-stream graph loader, the test oracle for the production scanner
// in src/serialize/serialize.cpp. It reads the text format through one
// std::istringstream per line and one std::string per token, which is slow
// but obviously follows the stream extraction rules that define the format
// (whitespace-separated tokens, `>>` integer parsing for num payloads). Its
// accept/reject behaviour is the spec: the scanner must throw tensat::Error
// exactly where this does, and must load the same graph everywhere else
// (tests/parse_fuzz_test.cpp checks both on mutated inputs).
#pragma once

#include <cctype>
#include <charconv>
#include <istream>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "lang/graph.h"
#include "support/check.h"

namespace tensat::serialize_oracle {

inline constexpr const char* kHeader = "tensat-graph v1";

// Strict integer token parse: the whole token must be a decimal integer.
// `ls >> int` would silently stop at the first non-numeric token, truncating
// child lists / roots lines instead of rejecting them — a service feeding
// untrusted text through load_graph needs the hard error.
inline int parse_id_token(const std::string& tok, const char* what) {
  int value = 0;
  auto [ptr, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), value);
  TENSAT_CHECK(ec == std::errc() && ptr == tok.data() + tok.size(),
               "bad " << what << " '" << tok << "'");
  return value;
}

// Rejects trailing tokens on a line whose grammar is already complete
// (num/str/var payload lines; op lines consume children themselves).
inline void expect_line_end(std::istringstream& ls, const std::string& line) {
  std::string extra;
  TENSAT_CHECK(!(ls >> extra),
               "trailing content '" << extra << "' on line: " << line);
}

inline Graph load_graph(std::istream& is, GraphKind kind = GraphKind::kConcrete) {
  std::string line;
  TENSAT_CHECK(std::getline(is, line) && line == kHeader,
               "bad header: expected '" << kHeader << "'");
  Graph g(kind);
  std::unordered_map<int, Id> ids;
  bool saw_roots = false;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string first;
    ls >> first;
    if (first == "roots") {
      std::vector<Id> roots;
      std::string tok;
      while (ls >> tok) {
        const int rid = parse_id_token(tok, "root id");
        auto it = ids.find(rid);
        TENSAT_CHECK(it != ids.end(), "roots reference unknown id " << rid);
        roots.push_back(it->second);
      }
      TENSAT_CHECK(!roots.empty(), "empty roots line");
      g.set_roots(std::move(roots));
      saw_roots = true;
      break;
    }
    const int out_id = parse_id_token(first, "node id");
    TENSAT_CHECK(out_id >= 0, "negative node id " << out_id);
    TENSAT_CHECK(ids.count(out_id) == 0, "duplicate node id " << out_id);
    std::string op_name;
    TENSAT_CHECK(static_cast<bool>(ls >> op_name), "missing op on line: " << line);
    TNode node;
    if (op_name == "num") {
      node.op = Op::kNum;
      TENSAT_CHECK(static_cast<bool>(ls >> node.num), "num without value");
      expect_line_end(ls, line);
    } else if (op_name == "str" || op_name == "var") {
      node.op = op_name == "str" ? Op::kStr : Op::kVar;
      std::string text;
      TENSAT_CHECK(static_cast<bool>(ls >> text), op_name << " without payload");
      node.str = Symbol(text);
      expect_line_end(ls, line);
    } else {
      auto op = op_from_name(op_name);
      TENSAT_CHECK(op.has_value(), "unknown op '" << op_name << "'");
      node.op = *op;
      std::string tok;
      while (ls >> tok) {
        const int child = parse_id_token(tok, "child id");
        auto it = ids.find(child);
        TENSAT_CHECK(it != ids.end(), "child references unknown id " << child);
        node.children.push_back(it->second);
      }
    }
    ids.emplace(out_id, g.add(std::move(node)));
  }
  TENSAT_CHECK(saw_roots, "missing roots line");
  // The roots line terminates the graph; anything after it is a malformed
  // document, not ignorable trailing data (a concatenated second graph or a
  // garbled upload must not half-parse).
  while (std::getline(is, line)) {
    for (char c : line)
      TENSAT_CHECK(std::isspace(static_cast<unsigned char>(c)),
                   "content after roots line: " << line);
  }
  return g;
}

inline Graph load_graph_from_string(const std::string& text,
                                    GraphKind kind = GraphKind::kConcrete) {
  std::istringstream is(text);
  return serialize_oracle::load_graph(is, kind);
}

}  // namespace tensat::serialize_oracle
