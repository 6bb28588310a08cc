#include <gtest/gtest.h>

#include <algorithm>

#include "lang/graph.h"
#include "lang/op.h"
#include "lang/parse.h"
#include "support/check.h"

namespace tensat {
namespace {

TEST(Op, NameRoundTrip) {
  for (size_t i = 0; i < static_cast<size_t>(Op::kOpCount); ++i) {
    const Op op = static_cast<Op>(i);
    if (op_is_leaf(op)) continue;
    auto back = op_from_name(op_info(op).name);
    ASSERT_TRUE(back.has_value()) << op_info(op).name;
    EXPECT_EQ(*back, op);
  }
}

TEST(Op, UnknownNameRejected) { EXPECT_FALSE(op_from_name("frobnicate").has_value()); }

TEST(Op, ArityMatchesSignature) {
  EXPECT_EQ(op_arity(Op::kConv), 6);
  EXPECT_EQ(op_arity(Op::kMatmul), 3);
  EXPECT_EQ(op_arity(Op::kPoolmax), 7);
  EXPECT_EQ(op_arity(Op::kNum), 0);
  EXPECT_EQ(op_arity(Op::kConcat4), 5);
}

TEST(Op, EveryArityFitsInline) {
  // TNode stores children in an inline array of kMaxArity ids; an op with
  // more would need a wider array.
  size_t widest = 0;
  for (size_t i = 0; i < static_cast<size_t>(Op::kOpCount); ++i) {
    const Op op = static_cast<Op>(i);
    EXPECT_LE(static_cast<size_t>(op_arity(op)), kMaxArity) << op_info(op).name;
    widest = std::max(widest, static_cast<size_t>(op_arity(op)));
  }
  EXPECT_EQ(widest, kMaxArity);  // no wider than it must be
}

TEST(TNode, TooManyChildrenThrow) {
  TNode node{Op::kPoolmax, 0, {}, {}};
  for (size_t i = 0; i < kMaxArity; ++i) node.children.push_back(0);
  EXPECT_THROW(node.children.push_back(0), Error);
  EXPECT_EQ(node.children.size(), kMaxArity);
}

TEST(Op, DimsRoundTrip) {
  const std::vector<int32_t> dims = {2, 3, 4};
  EXPECT_EQ(parse_dims(format_dims(dims)), dims);
  EXPECT_EQ(format_dims(dims), "2_3_4");
}

TEST(Op, TensorIdRoundTrip) {
  auto [name, dims] = parse_tensor_id("conv1_w@16_3_3_3");
  EXPECT_EQ(name, "conv1_w");
  EXPECT_EQ(dims, (std::vector<int32_t>{16, 3, 3, 3}));
}

TEST(Op, MalformedDimsThrow) {
  EXPECT_THROW(parse_dims("1_x_3"), Error);
  EXPECT_THROW(parse_tensor_id("no-at-sign"), Error);
}

TEST(Graph, HashConsing) {
  Graph g;
  const Id a = g.input("a", {2, 3});
  const Id b = g.input("a", {2, 3});
  EXPECT_EQ(a, b);
  const Id s1 = g.ewadd(a, a);
  const Id s2 = g.ewadd(a, b);
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(g.reachable_size(), 0u);  // no roots yet
}

TEST(Graph, ShapeCheckOnAdd) {
  Graph g;
  const Id a = g.input("a", {2, 3});
  const Id b = g.input("b", {3, 2});
  EXPECT_THROW(g.ewadd(a, b), Error);  // shape mismatch
  EXPECT_NO_THROW(g.matmul(a, b));
}

TEST(Graph, VarRejectedInConcrete) {
  Graph g;
  EXPECT_THROW(g.var("x"), Error);
}

TEST(Graph, PatternAllowsVars) {
  Graph p(GraphKind::kPattern);
  const Id v = p.var("x");
  EXPECT_EQ(p.node(v).op, Op::kVar);
}

TEST(Graph, TopoOrderChildrenFirst) {
  Graph g;
  const Id a = g.input("a", {2, 2});
  const Id b = g.weight("b", {2, 2});
  const Id m = g.matmul(a, b);
  g.add_root(m);
  const auto order = g.topo_order();
  auto pos = [&](Id id) {
    return std::find(order.begin(), order.end(), id) - order.begin();
  };
  EXPECT_LT(pos(a), pos(m));
  EXPECT_LT(pos(b), pos(m));
  EXPECT_EQ(order.back(), m);
}

TEST(Graph, SingleRootCombinesWithNoops) {
  Graph g;
  const Id a = g.input("a", {2, 2});
  const Id b = g.input("b", {2, 2});
  g.add_root(g.relu(a));
  g.add_root(g.relu(b));
  const Id root = g.single_root();
  EXPECT_EQ(g.node(root).op, Op::kNoop);
  EXPECT_EQ(g.roots().size(), 1u);
}

TEST(Graph, CanonicalKeyIsomorphismInvariant) {
  // Build the same dag in two different insertion orders.
  Graph g1;
  {
    const Id a = g1.input("a", {2, 2});
    const Id b = g1.weight("b", {2, 2});
    g1.add_root(g1.ewadd(g1.matmul(a, b), a));
  }
  Graph g2;
  {
    const Id b = g2.weight("b", {2, 2});
    const Id unused = g2.weight("unused", {4, 4});
    (void)unused;
    const Id a = g2.input("a", {2, 2});
    g2.add_root(g2.ewadd(g2.matmul(a, b), a));
  }
  EXPECT_EQ(g1.canonical_key(), g2.canonical_key());
}

TEST(Graph, CanonicalKeyDistinguishes) {
  Graph g1, g2;
  const Id a1 = g1.input("a", {2, 2});
  g1.add_root(g1.ewadd(a1, a1));
  const Id a2 = g2.input("a", {2, 2});
  g2.add_root(g2.ewmul(a2, a2));
  EXPECT_NE(g1.canonical_key(), g2.canonical_key());
}

TEST(Parse, SimpleExpr) {
  Graph g(GraphKind::kPattern);
  const Id root = parse_into(g, "(ewadd ?a ?b)");
  EXPECT_EQ(g.node(root).op, Op::kEwadd);
  EXPECT_EQ(g.node(g.node(root).children[0]).op, Op::kVar);
}

TEST(Parse, NestedWithLiterals) {
  Graph g(GraphKind::kPattern);
  const Id root = parse_into(g, "(matmul 1 ?a (transpose ?b 1_0))");
  const TNode& n = g.node(root);
  EXPECT_EQ(n.op, Op::kMatmul);
  EXPECT_EQ(g.node(n.children[0]).op, Op::kNum);
  EXPECT_EQ(g.node(n.children[0]).num, 1);
  const TNode& t = g.node(n.children[2]);
  EXPECT_EQ(t.op, Op::kTranspose);
  EXPECT_EQ(g.node(t.children[1]).str.str(), "1_0");
}

TEST(Parse, ConcreteInput) {
  Graph g;
  const Id root = parse_into(g, "(relu (input x@2_3))");
  EXPECT_EQ(g.node(root).op, Op::kRelu);
  EXPECT_EQ(g.info(root).shape, (Dims{2, 3}));
}

TEST(Parse, MultipleExprs) {
  Graph g(GraphKind::kPattern);
  const auto roots = parse_all_into(g, "(matmul ?act ?a ?b) (matmul ?act ?a ?c)");
  EXPECT_EQ(roots.size(), 2u);
}

TEST(Parse, ErrorsOnMalformedInput) {
  Graph g(GraphKind::kPattern);
  EXPECT_THROW(parse_into(g, "(ewadd ?a"), Error);        // missing paren
  EXPECT_THROW(parse_into(g, "(nosuchop ?a)"), Error);    // unknown head
  EXPECT_THROW(parse_into(g, "(ewadd ?a ?b) tail"), Error);  // trailing tokens
  EXPECT_THROW(parse_into(g, "(ewadd ?a ?b ?c)"), Error);    // arity
  // Eight arguments: more than any op takes, rejected before the node's
  // inline child array could overflow.
  EXPECT_THROW(parse_into(g, "(poolmax ?a ?b ?c ?d ?e ?f ?g ?h)"), Error);
}

TEST(Parse, PrintParseRoundTrip) {
  Graph g(GraphKind::kPattern);
  const std::string text = "(split0 (split 1 (matmul 0 ?a (concat2 1 ?b ?c))))";
  const Id root = parse_into(g, text);
  EXPECT_EQ(g.to_sexpr(root), text);
}

TEST(Graph, OpHistogramCountsReachable) {
  Graph g;
  const Id a = g.input("a", {2, 2});
  g.relu(a);  // unreachable from roots
  g.add_root(g.ewadd(a, a));
  const auto hist = g.op_histogram();
  EXPECT_EQ(hist.count(Op::kRelu), 0u);
  EXPECT_EQ(hist.at(Op::kEwadd), 1);
}

}  // namespace
}  // namespace tensat
