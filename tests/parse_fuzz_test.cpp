// Parser robustness: arbitrary token soup must either parse or throw
// tensat::Error — never crash, hang, or corrupt the graph. Also checks the
// print -> parse -> print fixpoint on randomly generated patterns, and — the
// service ingestion path — the save_graph/load_graph round trip, its
// malformed-input rejection (a long-lived service must never crash or
// silently mis-parse user-supplied graph text), and a differential regime
// that holds the production scanner to the line-stream oracle
// (serialize_oracle.h) on byte-mutated saved graphs.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "lang/parse.h"
#include "models/models.h"
#include "serialize/serialize.h"
#include "serialize_oracle.h"
#include "service/fingerprint.h"
#include "support/check.h"
#include "support/rng.h"

namespace tensat {
namespace {

class ParserFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ParserFuzz, RandomTokenSoupNeverCrashes) {
  Rng rng(31337 + GetParam());
  static const char* kTokens[] = {"(",      ")",       "ewadd",  "matmul", "conv",
                                  "split",  "split0",  "relu",   "?x",     "?y",
                                  "0",      "1",       "2",      "1_0",    "x@2_3",
                                  "concat2", "transpose", "noop", "str",    "-5"};
  std::string input;
  const int len = 1 + static_cast<int>(rng.below(25));
  for (int i = 0; i < len; ++i) {
    input += kTokens[rng.below(std::size(kTokens))];
    input += ' ';
  }
  Graph g(GraphKind::kPattern);
  try {
    const Id root = parse_into(g, input);
    // If it parsed, the result must print and re-parse to the same form.
    const std::string printed = g.to_sexpr(root);
    Graph g2(GraphKind::kPattern);
    const Id root2 = parse_into(g2, printed);
    EXPECT_EQ(g2.to_sexpr(root2), printed);
  } catch (const Error&) {
    // Expected for malformed input.
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz, ::testing::Range(0, 200));

/// Random well-formed pattern generator.
Id random_pattern(Graph& g, Rng& rng, int depth) {
  if (depth <= 0 || rng.chance(0.3)) {
    switch (rng.below(3)) {
      case 0:
        return g.var("v" + std::to_string(rng.below(4)));
      case 1:
        return g.num(static_cast<int64_t>(rng.range(0, 3)));
      default:
        return g.str("s" + std::to_string(rng.below(3)));
    }
  }
  static const Op kOps[] = {Op::kEwadd, Op::kEwmul, Op::kRelu,    Op::kTanh,
                            Op::kMatmul, Op::kConcat2, Op::kTranspose};
  const Op op = kOps[rng.below(std::size(kOps))];
  TNode node{op, 0, {}, {}};
  for (int i = 0; i < op_arity(op); ++i)
    node.children.push_back(random_pattern(g, rng, depth - 1));
  return g.add(std::move(node));
}

class PrintParseRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(PrintParseRoundTrip, GeneratedPatterns) {
  Rng rng(616 + GetParam());
  Graph g(GraphKind::kPattern);
  const Id root = random_pattern(g, rng, 4);
  const std::string printed = g.to_sexpr(root);
  Graph g2(GraphKind::kPattern);
  const Id root2 = parse_into(g2, printed);
  EXPECT_EQ(g2.to_sexpr(root2), printed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrintParseRoundTrip, ::testing::Range(0, 50));

TEST(ParserEdge, DeeplyNestedInputIsFine) {
  std::string deep;
  constexpr int kDepth = 2000;
  for (int i = 0; i < kDepth; ++i) deep += "(relu ";
  deep += "?x";
  for (int i = 0; i < kDepth; ++i) deep += ")";
  Graph g(GraphKind::kPattern);
  EXPECT_NO_THROW(parse_into(g, deep));
  EXPECT_EQ(g.size(), kDepth + 1u);  // hash-consing cannot collapse a chain
}

TEST(ParserEdge, WhitespaceVariants) {
  Graph g(GraphKind::kPattern);
  const Id a = parse_into(g, "(ewadd ?x ?y)");
  const Id b = parse_into(g, "  (ewadd\n\t?x    ?y\n)  ");
  EXPECT_EQ(a, b);  // same hash-consed node
}

TEST(ParserEdge, NegativeNumbersAreNumLeaves) {
  Graph g(GraphKind::kPattern);
  const Id root = parse_into(g, "(ewadd ?x ?x)");
  (void)root;
  const Id n = parse_into(g, "-7");
  EXPECT_EQ(g.node(n).op, Op::kNum);
  EXPECT_EQ(g.node(n).num, -7);
}

// ---- serialize round-trip regime -------------------------------------------

/// Random well-formed concrete graph: shape-preserving op chains over a few
/// 2-D inputs, so every generated graph also passes shape inference.
Graph random_concrete_graph(Rng& rng) {
  Graph g;
  const int dim = 2 + static_cast<int>(rng.below(3)) * 2;  // 2, 4, or 6
  std::vector<Id> pool;
  const int inputs = 1 + static_cast<int>(rng.below(3));
  for (int i = 0; i < inputs; ++i)
    pool.push_back(rng.chance(0.5) ? g.input("in" + std::to_string(i), {dim, dim})
                                   : g.weight("w" + std::to_string(i), {dim, dim}));
  const int steps = 1 + static_cast<int>(rng.below(12));
  for (int i = 0; i < steps; ++i) {
    const Id a = pool[rng.below(pool.size())];
    const Id b = pool[rng.below(pool.size())];
    switch (rng.below(4)) {
      case 0: pool.push_back(g.ewadd(a, b)); break;
      case 1: pool.push_back(g.ewmul(a, b)); break;
      case 2: pool.push_back(g.relu(a)); break;
      default: pool.push_back(g.matmul(a, b)); break;
    }
  }
  std::vector<Id> roots;
  const int nroots = 1 + static_cast<int>(rng.below(2));
  for (int i = 0; i < nroots; ++i) roots.push_back(pool[pool.size() - 1 - i]);
  g.set_roots(std::move(roots));
  return g;
}

class SerializeRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(SerializeRoundTrip, SaveLoadSaveIsFixpoint) {
  Rng rng(90210 + GetParam());
  const Graph g = random_concrete_graph(rng);
  const std::string once = save_graph_to_string(g);
  const Graph back = load_graph_from_string(once);
  EXPECT_EQ(save_graph_to_string(back), once);
  EXPECT_EQ(back.canonical_key(), g.canonical_key());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializeRoundTrip, ::testing::Range(0, 50));

class SerializeFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SerializeFuzz, RandomLineSoupNeverCrashes) {
  Rng rng(4242 + GetParam());
  static const char* kTokens[] = {"0",     "1",    "2",     "-1",   "roots",
                                  "num",   "str",  "var",   "relu", "ewadd",
                                  "matmul", "x@2_3", "w@9999999999", "junk",
                                  "3x",    "tensat-graph"};
  std::string input = "tensat-graph v1\n";
  const int lines = 1 + static_cast<int>(rng.below(8));
  for (int l = 0; l < lines; ++l) {
    const int len = 1 + static_cast<int>(rng.below(6));
    for (int i = 0; i < len; ++i) {
      input += kTokens[rng.below(std::size(kTokens))];
      input += ' ';
    }
    input += '\n';
  }
  try {
    const Graph g = load_graph_from_string(input);
    // If it parsed, it must round-trip exactly.
    EXPECT_EQ(save_graph_to_string(load_graph_from_string(save_graph_to_string(g))),
              save_graph_to_string(g));
  } catch (const Error&) {
    // Expected for malformed input.
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializeFuzz, ::testing::Range(0, 200));

/// A graph whose second line is `op` over `children` copies of node 0.
std::string op_line_with_children(const char* op, int children) {
  std::string text = "tensat-graph v1\n0 num 3\n1 ";
  text += op;
  for (int i = 0; i < children; ++i) text += " 0";
  text += "\nroots 1\n";
  return text;
}

TEST(SerializeEdge, MalformedInputsThrow) {
  static const char* kBad[] = {
      // Trailing garbage on the roots line (used to be silently dropped).
      "tensat-graph v1\n0 num 3\nroots 0 junk\n",
      // Non-integer child token (used to silently truncate the child list).
      "tensat-graph v1\n0 num 3\n1 relu 0junk\nroots 1\n",
      // Negative node id on the definition side.
      "tensat-graph v1\n-1 num 3\nroots -1\n",
      // Duplicate id.
      "tensat-graph v1\n0 num 3\n0 num 4\nroots 0\n",
      // Content after the roots line (used to be silently ignored).
      "tensat-graph v1\n0 num 3\nroots 0\n1 num 4\n",
      // Trailing token on a num payload line.
      "tensat-graph v1\n0 num 3 extra\nroots 0\n",
      // Trailing token on a str payload line.
      "tensat-graph v1\n0 str x@2_2 extra\nroots 0\n",
      // num payload overflow.
      "tensat-graph v1\n0 num 99999999999999999999999999\nroots 0\n",
      // Roots referencing an unknown id.
      "tensat-graph v1\n0 num 3\nroots 5\n",
      // Empty roots line.
      "tensat-graph v1\n0 num 3\nroots\n",
  };
  for (const char* bad : kBad) {
    EXPECT_THROW(load_graph_from_string(bad), Error) << bad;
  }
  // More child ids than any op takes (kMaxArity is 7): rejected while the
  // line is read, before the node's inline child array could overflow.
  for (int children : {8, 64}) {
    EXPECT_THROW(load_graph_from_string(op_line_with_children("poolmax", children)), Error)
        << children;
  }
}

TEST(SerializeEdge, OverflowShapeLiteralThrows) {
  // An overflow-sized shape literal parses as a str payload, but the input
  // node consuming it runs shape inference inside Graph::add — the overflow
  // must surface as tensat::Error (not an assert or a silent truncation)
  // while still inside load_graph.
  EXPECT_THROW(load_graph_from_string(
                   "tensat-graph v1\n0 str x@99999999999\n1 input 0\nroots 1\n"),
               Error);
}

// ---- differential regime: scanner vs. line-stream oracle --------------------

/// `text` with control and non-ASCII bytes spelled as escapes, for failure
/// messages.
std::string escaped(const std::string& text) {
  std::string out;
  for (unsigned char c : text) {
    if (c == '\n') {
      out += "\\n";
    } else if (c < 0x20 || c >= 0x7f) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\x%02x", c);
      out += buf;
    } else {
      out += static_cast<char>(c);
    }
  }
  return out;
}

/// The scanner (through either entry point) and the oracle must both throw
/// tensat::Error, or both load graphs with the same saved bytes and the same
/// canonical form. Any other exception escapes and fails the test.
void expect_same_as_oracle(const std::string& text, bool via_stream) {
  std::optional<Graph> got;
  std::optional<Graph> want;
  try {
    std::istringstream is(text);
    got = via_stream ? load_graph(is) : load_graph_from_string(text);
  } catch (const Error&) {
  }
  try {
    want = serialize_oracle::load_graph_from_string(text);
  } catch (const Error&) {
  }
  ASSERT_EQ(got.has_value(), want.has_value())
      << (want ? "scanner rejects" : "scanner accepts") << ": " << escaped(text);
  if (!got) return;
  EXPECT_EQ(save_graph_to_string(*got), save_graph_to_string(*want)) << escaped(text);
  EXPECT_EQ(service::canonical_form(*got), service::canonical_form(*want))
      << escaped(text);
}

/// Rewrites every node, child and root id of a saved graph through `f`,
/// leaving num/str/var payloads alone.
std::string renumber_ids(const std::string& text,
                         const std::function<long long(long long)>& f) {
  std::istringstream is(text);
  std::string line;
  std::getline(is, line);
  std::string out = line + '\n';
  while (std::getline(is, line)) {
    std::istringstream ls(line);
    std::vector<std::string> toks;
    for (std::string tok; ls >> tok;) toks.push_back(tok);
    const bool roots = !toks.empty() && toks[0] == "roots";
    const bool payload =
        toks.size() > 1 && (toks[1] == "num" || toks[1] == "str" || toks[1] == "var");
    for (size_t i = 0; i < toks.size(); ++i) {
      const bool is_id = roots ? i > 0 : i == 0 || (i > 1 && !payload);
      if (i > 0) out += ' ';
      out += is_id ? std::to_string(f(std::stoll(toks[i]))) : toks[i];
    }
    out += '\n';
  }
  return out;
}

/// Saved texts of the tiny models and of random concrete graphs.
const std::vector<std::string>& mutation_corpus() {
  static const std::vector<std::string> corpus = [] {
    std::vector<std::string> texts;
    for (const ModelInfo& m : tiny_models()) texts.push_back(save_graph_to_string(m.graph));
    for (int seed = 0; seed < 24; ++seed) {
      Rng rng(5150 + seed);
      texts.push_back(save_graph_to_string(random_concrete_graph(rng)));
    }
    return texts;
  }();
  return corpus;
}

/// One byte-level edit of `s` at a random position.
void mutate_bytes(std::string& s, Rng& rng) {
  static const char* kTokens[] = {
      "+5",  "+",    "-",     "+-5",   "-0",    "007",   "2147483647", "2147483648",
      "-2147483649", "9223372036854775807", "9223372036854775808",
      "-9223372036854775808", " ", "\t", "\r", "\v", "\f", "\n", "roots", "num",
      "str", "var", "relu", "tensat-graph v1"};
  const size_t pos = rng.below(s.size() + 1);
  switch (rng.below(8)) {
    case 0:  // drop 1-3 bytes
      s.erase(pos, 1 + rng.below(3));
      break;
    case 1:  // duplicate up to 8 bytes
      s.insert(pos, s.substr(pos, 1 + rng.below(8)));
      break;
    case 2:  // insert any byte, NUL and high bytes included
      s.insert(pos, 1, static_cast<char>(rng.below(256)));
      break;
    case 3:  // insert a token that sits on a parsing edge
      s.insert(pos, kTokens[rng.below(std::size(kTokens))]);
      break;
    case 4: {  // CRLF line ends, or tabs for spaces
      const bool crlf = rng.chance(0.5);
      std::string out;
      for (char c : s) {
        if (crlf && c == '\n') out += '\r';
        out += !crlf && c == ' ' ? '\t' : c;
      }
      s = std::move(out);
      break;
    }
    case 5: {  // a sign on the first token at or after `pos`
      size_t at = pos;
      while (at < s.size() && !(std::isdigit(static_cast<unsigned char>(s[at])) &&
                                (at == 0 || s[at - 1] == ' ')))
        ++at;
      static const char* kSigns[] = {"+", "-", "+-", "++", "-+"};
      s.insert(at, kSigns[rng.below(std::size(kSigns))]);
      break;
    }
    case 6: {  // text after the roots line
      static const char* kTails[] = {"junk", " \n", "\t\r\n", "\n\n", "1 num 3\n",
                                     "roots 0\n", "\v\f"};
      s += kTails[rng.below(std::size(kTails))];
      break;
    }
    default:  // truncate
      s.resize(pos);
      break;
  }
}

class SerializeDifferential : public ::testing::TestWithParam<int> {};

TEST_P(SerializeDifferential, ScannerMatchesOracleOnMutatedBytes) {
  Rng rng(8086 + GetParam());
  const std::vector<std::string>& corpus = mutation_corpus();
  // Id renumberings: sparse, shifted, partly dense, colliding, forward
  // references, and ids at and past INT_MAX.
  const std::function<long long(long long)> kRenumber[] = {
      [](long long k) { return 7 * k + 3; },
      [](long long k) { return k + 1; },
      [](long long k) { return k < 3 ? k : k + 10; },
      [](long long k) { return k % 5; },
      [](long long k) { return 1000 - k; },
      [](long long k) { return 2147483640 + k; },
  };
  for (int i = 0; i < 40; ++i) {
    std::string text = corpus[rng.below(corpus.size())];
    const bool renumbered = rng.chance(0.3);
    if (renumbered) text = renumber_ids(text, kRenumber[rng.below(std::size(kRenumber))]);
    const int edits = static_cast<int>(rng.below(4)) + (renumbered ? 0 : 1);
    for (int e = 0; e < edits; ++e) mutate_bytes(text, rng);
    expect_same_as_oracle(text, rng.chance(0.5));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializeDifferential, ::testing::Range(0, 100));

TEST(SerializeEdge, ScannerMatchesOracleOnEdgeCases) {
  static const char* kCases[] = {
      "",
      "\n",
      "tensat-graph v1",  // a lone header
      "tensat-graph v1\n",
      "tensat-graph v1\r\n0 num 3\r\nroots 0\r\n",
      "tensat-graph v1\n0 num 3\r\nroots 0\r\n",
      "tensat-graph v1\n\t0\tnum\t3\nroots\t0\t\n",
      "tensat-graph v1\n0 num +5\nroots 0\n",
      "tensat-graph v1\n0 num +-5\nroots 0\n",
      "tensat-graph v1\n0 num -0\nroots 0\n",
      "tensat-graph v1\n+0 num 5\nroots 0\n",
      "tensat-graph v1\n-0 num 5\nroots -0\n",
      "tensat-graph v1\n0 num 9223372036854775807\nroots 0\n",
      "tensat-graph v1\n0 num 9223372036854775808\nroots 0\n",
      "tensat-graph v1\n2147483647 num 5\nroots 2147483647\n",
      "tensat-graph v1\n2147483648 num 5\nroots 2147483648\n",
      "tensat-graph v1\n5 str x@2_2\n9 input 5\n3 relu 9\nroots 3 9\n",
      "tensat-graph v1\n0 str x@2_2\n1 input 0\n\n \nroots 1\n",
      "tensat-graph v1\n0 str x@2_2\n1 input 0\nroots 1\n \t\r\n\n",
      "tensat-graph v1\n0 str x@2_2\n1 input 0\nroots 1\n1 num 3\n",
      "tensat-graph v1\n0 str x@2_2\n1 input 0\nroots 1 roots\n",
      "tensat-graph v1\n0 num 3\nroots\n",
      "tensat-graph v1\n0 num\nroots 0\n",
      "tensat-graph v1\n0\nroots 0\n",
      "tensat-graph v1\n0 str\nroots 0\n",
      "tensat-graph v1 \n0 num 3\nroots 0\n",
  };
  for (const char* text : kCases) {
    expect_same_as_oracle(text, false);
    expect_same_as_oracle(text, true);
  }
  for (int children : {8, 64}) {
    expect_same_as_oracle(op_line_with_children("poolmax", children), false);
    expect_same_as_oracle(op_line_with_children("poolmax", children), true);
  }
}

}  // namespace
}  // namespace tensat
