#include "serialize/serialize.h"

#include <charconv>
#include <istream>
#include <iterator>
#include <optional>
#include <ostream>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "support/check.h"

namespace tensat {
namespace {

constexpr std::string_view kHeader = "tensat-graph v1";

// The "C" locale's whitespace: space, \t, \n, \v, \f, \r.
bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

// Takes the next line off `rest` the way std::getline does: a last line
// without '\n' still counts, an empty remainder after the final '\n' does not.
bool next_line(std::string_view& rest, std::string_view& line) {
  if (rest.empty()) return false;
  const size_t nl = rest.find('\n');
  line = rest.substr(0, nl);
  rest.remove_prefix(nl == std::string_view::npos ? rest.size() : nl + 1);
  return true;
}

// Takes the next whitespace-separated token off `rest`; empty at line end.
std::string_view next_token(std::string_view& rest) {
  size_t begin = 0;
  while (begin < rest.size() && is_space(rest[begin])) ++begin;
  size_t end = begin;
  while (end < rest.size() && !is_space(rest[end])) ++end;
  const std::string_view tok = rest.substr(begin, end - begin);
  rest.remove_prefix(end);
  return tok;
}

// The whole token as a decimal integer: an optional '-', digits, in range.
template <typename T>
std::optional<T> parse_int(std::string_view tok) {
  T value = 0;
  const char* end = tok.data() + tok.size();
  auto [ptr, ec] = std::from_chars(tok.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

// Node, child and root ids. The whole token must parse: stopping at the
// first non-numeric byte would truncate a child list or roots line instead
// of rejecting it, and a service feeding untrusted text through here needs
// the hard error.
int parse_id(std::string_view tok, const char* what) {
  const std::optional<int> id = parse_int<int>(tok);
  TENSAT_CHECK(id.has_value(), "bad " << what << " '" << tok << "'");
  return *id;
}

void expect_line_end(std::string_view rest, std::string_view line) {
  const std::string_view extra = next_token(rest);
  TENSAT_CHECK(extra.empty(),
               "trailing content '" << extra << "' on line: " << line);
}

// File node id -> graph id. save_graph numbers nodes 0, 1, 2, ... in file
// order, which `dense_` holds without hashing; any other unique non-negative
// numbering, which the format also accepts, goes to `sparse_`.
class IdTable {
 public:
  [[nodiscard]] Id find(int file_id) const {
    if (file_id >= 0 && static_cast<size_t>(file_id) < dense_.size())
      return dense_[file_id];
    auto it = sparse_.find(file_id);
    return it == sparse_.end() ? kInvalidId : it->second;
  }
  // `file_id` is non-negative and not yet present.
  void insert(int file_id, Id id) {
    if (static_cast<size_t>(file_id) == dense_.size())
      dense_.push_back(id);
    else
      sparse_.emplace(file_id, id);
  }

 private:
  std::vector<Id> dense_;
  std::unordered_map<int, Id> sparse_;
};

Graph parse_graph(std::string_view text, GraphKind kind) {
  std::string_view line;
  TENSAT_CHECK(next_line(text, line) && line == kHeader,
               "bad header: expected '" << kHeader << "'");
  Graph g(kind);
  IdTable ids;
  bool saw_roots = false;
  while (next_line(text, line)) {
    if (line.empty()) continue;
    std::string_view rest = line;
    const std::string_view first = next_token(rest);
    if (first == "roots") {
      std::vector<Id> roots;
      for (auto tok = next_token(rest); !tok.empty(); tok = next_token(rest)) {
        const int rid = parse_id(tok, "root id");
        const Id id = ids.find(rid);
        TENSAT_CHECK(id != kInvalidId, "roots reference unknown id " << rid);
        roots.push_back(id);
      }
      TENSAT_CHECK(!roots.empty(), "empty roots line");
      g.set_roots(std::move(roots));
      saw_roots = true;
      break;
    }
    const int out_id = parse_id(first, "node id");
    TENSAT_CHECK(out_id >= 0, "negative node id " << out_id);
    TENSAT_CHECK(ids.find(out_id) == kInvalidId, "duplicate node id " << out_id);
    const std::string_view op_name = next_token(rest);
    TENSAT_CHECK(!op_name.empty(), "missing op on line: " << line);
    TNode node;
    if (op_name == "num") {
      node.op = Op::kNum;
      std::string_view tok = next_token(rest);
      // `>>` extraction, which defines the format (see the test oracle
      // tests/serialize_oracle.h), also takes a leading '+'.
      if (tok.size() > 1 && tok[0] == '+' && tok[1] >= '0' && tok[1] <= '9')
        tok.remove_prefix(1);
      const std::optional<int64_t> value = parse_int<int64_t>(tok);
      TENSAT_CHECK(value.has_value(), "num without value");
      node.num = *value;
      expect_line_end(rest, line);
    } else if (op_name == "str" || op_name == "var") {
      node.op = op_name == "str" ? Op::kStr : Op::kVar;
      const std::string_view payload = next_token(rest);
      TENSAT_CHECK(!payload.empty(), op_name << " without payload");
      node.str = Symbol(payload);
      expect_line_end(rest, line);
    } else {
      const std::optional<Op> op = op_from_name(op_name);
      TENSAT_CHECK(op.has_value(), "unknown op '" << op_name << "'");
      node.op = *op;
      for (auto tok = next_token(rest); !tok.empty(); tok = next_token(rest)) {
        const int child = parse_id(tok, "child id");
        const Id id = ids.find(child);
        TENSAT_CHECK(id != kInvalidId, "child references unknown id " << child);
        node.children.push_back(id);
      }
    }
    ids.insert(out_id, g.add(std::move(node)));
  }
  TENSAT_CHECK(saw_roots, "missing roots line");
  // The roots line terminates the graph; anything after it is a malformed
  // document, not ignorable trailing data (a concatenated second graph or a
  // garbled upload must not half-parse).
  while (next_line(text, line))
    for (char c : line)
      TENSAT_CHECK(is_space(c), "content after roots line: " << line);
  return g;
}

}  // namespace

void save_graph(const Graph& g, std::ostream& os) {
  os << kHeader << '\n';
  std::unordered_map<Id, int> renumber;
  for (Id id : g.topo_order()) {
    const int out_id = static_cast<int>(renumber.size());
    renumber.emplace(id, out_id);
    const TNode& n = g.node(id);
    os << out_id << ' ' << op_info(n.op).name;
    if (n.op == Op::kNum) os << ' ' << n.num;
    if (n.op == Op::kStr || n.op == Op::kVar) os << ' ' << n.str.str();
    for (Id c : n.children) os << ' ' << renumber.at(c);
    os << '\n';
  }
  os << "roots";
  for (Id root : g.roots()) os << ' ' << renumber.at(root);
  os << '\n';
}

std::string save_graph_to_string(const Graph& g) {
  std::ostringstream os;
  save_graph(g, os);
  return os.str();
}

Graph load_graph(std::istream& is, GraphKind kind) {
  const std::string text{std::istreambuf_iterator<char>(is),
                         std::istreambuf_iterator<char>()};
  return parse_graph(text, kind);
}

Graph load_graph_from_string(const std::string& text, GraphKind kind) {
  return parse_graph(text, kind);
}

}  // namespace tensat
