#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lang/graph.h"
#include "lang/parse.h"
#include "lang/shapes.h"

namespace tensat {
namespace {

// Most cases go through Graph::try_add, which exercises infer() exactly the
// way the e-graph analysis does.

TEST(Shapes, MatmulBasic) {
  Graph g;
  const Id a = g.input("a", {4, 8});
  const Id b = g.weight("b", {8, 3});
  const Id m = g.matmul(a, b);
  EXPECT_EQ(g.info(m).shape, (Dims{4, 3}));
  EXPECT_FALSE(g.info(m).weight_only);
}

TEST(Shapes, MatmulInnerMismatchFails) {
  Graph g;
  const Id a = g.input("a", {4, 8});
  const Id b = g.weight("b", {7, 3});
  EXPECT_FALSE(g.try_add({Op::kMatmul, 0, {}, {g.num(0), a, b}}).has_value());
}

TEST(Shapes, MatmulBatched) {
  Graph g;
  const Id a = g.input("a", {2, 4, 8});
  const Id b = g.input("b", {2, 8, 5});
  EXPECT_EQ(g.info(g.matmul(a, b)).shape, (Dims{2, 4, 5}));
}

TEST(Shapes, MatmulBroadcastRhs) {
  Graph g;
  const Id a = g.input("a", {2, 4, 8});
  const Id w = g.weight("w", {8, 5});
  EXPECT_EQ(g.info(g.matmul(a, w)).shape, (Dims{2, 4, 5}));
}

TEST(Shapes, MatmulBatchMismatchFails) {
  Graph g;
  const Id a = g.input("a", {2, 4, 8});
  const Id b = g.input("b", {3, 8, 5});
  EXPECT_FALSE(g.try_add({Op::kMatmul, 0, {}, {g.num(0), a, b}}).has_value());
}

TEST(Shapes, MatmulWeightOnlyPropagates) {
  Graph g;
  const Id a = g.weight("a", {4, 8});
  const Id b = g.weight("b", {8, 3});
  EXPECT_TRUE(g.info(g.matmul(a, b)).weight_only);
}

TEST(Shapes, ConvSamePadding) {
  Graph g;
  const Id x = g.input("x", {1, 8, 14, 14});
  const Id w = g.weight("w", {16, 8, 3, 3});
  const Id c = g.conv(x, w, 1, 1, kPadSame);
  EXPECT_EQ(g.info(c).shape, (Dims{1, 16, 14, 14}));
}

TEST(Shapes, ConvValidPaddingAndStride) {
  Graph g;
  const Id x = g.input("x", {1, 8, 14, 14});
  const Id w = g.weight("w", {16, 8, 3, 3});
  const Id c = g.conv(x, w, 2, 2, kPadValid);
  EXPECT_EQ(g.info(c).shape, (Dims{1, 16, 6, 6}));
}

TEST(Shapes, GroupedConv) {
  Graph g;
  const Id x = g.input("x", {1, 8, 7, 7});
  const Id w = g.weight("w", {16, 2, 3, 3});  // groups = 4
  const Id c = g.conv(x, w, 1, 1, kPadSame);
  EXPECT_EQ(g.info(c).shape, (Dims{1, 16, 7, 7}));
}

TEST(Shapes, ConvBadGroupingFails) {
  Graph g;
  const Id x = g.input("x", {1, 8, 7, 7});
  const Id w = g.weight("w", {16, 3, 3, 3});  // 8 % 3 != 0
  EXPECT_FALSE(
      g.try_add({Op::kConv, 0, {}, {g.num(1), g.num(1), g.num(0), g.num(0), x, w}})
          .has_value());
}

TEST(Shapes, ConvCoutNotDivisibleByGroupsFails) {
  Graph g;
  const Id x = g.input("x", {1, 8, 7, 7});
  const Id w = g.weight("w", {10, 2, 3, 3});  // groups=4, 10 % 4 != 0
  EXPECT_FALSE(
      g.try_add({Op::kConv, 0, {}, {g.num(1), g.num(1), g.num(0), g.num(0), x, w}})
          .has_value());
}

TEST(Shapes, TransposePermutes) {
  Graph g;
  const Id x = g.input("x", {2, 3, 4});
  const Id t = g.transpose(x, {2, 0, 1});
  EXPECT_EQ(g.info(t).shape, (Dims{4, 2, 3}));
}

TEST(Shapes, TransposeBadPermFails) {
  Graph g;
  const Id x = g.input("x", {2, 3});
  EXPECT_FALSE(
      g.try_add({Op::kTranspose, 0, {}, {x, g.str("0_0")}}).has_value());
  EXPECT_FALSE(
      g.try_add({Op::kTranspose, 0, {}, {x, g.str("0_1_2")}}).has_value());
}

TEST(Shapes, ConcatSums) {
  Graph g;
  const Id a = g.input("a", {1, 4, 7, 7});
  const Id b = g.input("b", {1, 6, 7, 7});
  const Id c = g.concat(1, {a, b});
  EXPECT_EQ(g.info(c).shape, (Dims{1, 10, 7, 7}));
  ASSERT_EQ(g.info(c).hist.size(), 1u);
  EXPECT_EQ(g.info(c).hist[0].axis, 1);
  EXPECT_EQ(g.info(c).hist[0].pos, 4);
}

TEST(Shapes, ConcatMismatchFails) {
  Graph g;
  const Id a = g.input("a", {1, 4, 7, 7});
  const Id b = g.input("b", {1, 6, 5, 7});
  EXPECT_FALSE(g.try_add({Op::kConcat2, 0, {}, {g.num(1), a, b}}).has_value());
}

TEST(Shapes, TernaryConcatHasNoSplitBoundary) {
  Graph g;
  const Id a = g.input("a", {1, 4, 7, 7});
  const Id c = g.concat(1, {a, a, a});
  EXPECT_TRUE(g.info(c).hist.empty());
}

TEST(Shapes, SplitRoundTrip) {
  Graph g;
  const Id a = g.input("a", {2, 3});
  const Id b = g.input("b", {2, 5});
  const Id cat = g.concat(1, {a, b});
  const Id sp = g.split(1, cat);
  const ValueInfo& info = g.info(sp);
  EXPECT_EQ(info.kind, VKind::kTuple);
  EXPECT_EQ(info.shape, (Dims{2, 3}));
  EXPECT_EQ(info.shape2, (Dims{2, 5}));
  EXPECT_EQ(g.info(g.split0(sp)).shape, g.info(a).shape);
  EXPECT_EQ(g.info(g.split1(sp)).shape, g.info(b).shape);
}

TEST(Shapes, SplitWithoutConcatFails) {
  Graph g;
  const Id a = g.input("a", {2, 6});
  EXPECT_FALSE(g.try_add({Op::kSplit, 0, {}, {g.num(1), a}}).has_value());
}

TEST(Shapes, SplitWrongAxisFails) {
  Graph g;
  const Id a = g.input("a", {2, 3});
  const Id cat = g.concat(1, {a, a});
  EXPECT_FALSE(g.try_add({Op::kSplit, 0, {}, {g.num(0), cat}}).has_value());
}

TEST(Shapes, NestedConcatSplitUsesMostRecent) {
  Graph g;
  const Id a = g.input("a", {2, 3});
  const Id b = g.input("b", {2, 5});
  const Id inner = g.concat(1, {a, b});          // boundary at 3
  const Id c = g.input("c", {2, 2});
  const Id outer = g.concat(1, {inner, c});      // boundary at 8
  const Id sp = g.split(1, outer);
  EXPECT_EQ(g.info(sp).shape, (Dims{2, 8}));
  EXPECT_EQ(g.info(sp).shape2, (Dims{2, 2}));
  // The first half keeps the inner boundary and can be split again.
  const Id sp2 = g.split(1, g.split0(sp));
  EXPECT_EQ(g.info(sp2).shape, (Dims{2, 3}));
}

TEST(Shapes, DeepConcatHistorySpillsAndSplitsBack) {
  // Five binary concats stack five boundaries, more than ValueInfo keeps
  // inline; five splits must still peel the operands off in reverse order.
  Graph g;
  std::vector<Id> parts;
  for (int i = 0; i <= 5; ++i)
    parts.push_back(g.input("p" + std::to_string(i), {2, i + 1}));
  Id cat = parts[0];
  for (int i = 1; i <= 5; ++i) cat = g.concat(1, {cat, parts[i]});
  ASSERT_EQ(g.info(cat).hist.size(), 5u);
  EXPECT_FALSE(g.info(cat).hist.is_inline());
  EXPECT_EQ(g.info(cat).shape, (Dims{2, 21}));
  Id rest = cat;
  for (int i = 5; i >= 1; --i) {
    const Id sp = g.split(1, rest);
    EXPECT_EQ(g.info(g.split1(sp)).shape, g.info(parts[i]).shape) << i;
    rest = g.split0(sp);
    EXPECT_EQ(g.info(rest).hist.size(), static_cast<size_t>(i - 1)) << i;
  }
  EXPECT_EQ(g.info(rest).shape, g.info(parts[0]).shape);
  EXPECT_FALSE(g.try_add({Op::kSplit, 0, {}, {g.num(1), rest}}).has_value());
}

TEST(Shapes, HighRankTensorSpills) {
  // Rank 6 is past the four dims ValueInfo keeps inline.
  Graph g;
  const Id x = g.input("x", {1, 2, 3, 4, 5, 6});
  const Id y = g.input("y", {1, 2, 3, 4, 5, 6});
  const ValueInfo& sum = g.info(g.ewadd(x, y));
  EXPECT_EQ(sum.shape, (Dims{1, 2, 3, 4, 5, 6}));
  EXPECT_FALSE(sum.shape.is_inline());
  EXPECT_EQ(sum.rank(), 6);
  EXPECT_EQ(sum.volume(), 720);
  EXPECT_FALSE(g.try_add({Op::kEwadd, 0, {}, {x, g.input("z", {1, 2, 3, 4, 5, 7})}})
                   .has_value());
}

TEST(Shapes, HistPropagatesThroughMatmulRhs) {
  // Paper Fig. 2: split 1 after matmul of a column-concat must know the
  // boundary.
  Graph g;
  const Id x = g.input("x", {4, 8});
  const Id b = g.weight("b", {8, 3});
  const Id c = g.weight("c", {8, 5});
  const Id m = g.matmul(x, g.concat(1, {b, c}));
  const Id sp = g.split(1, m);
  EXPECT_EQ(g.info(sp).shape, (Dims{4, 3}));
  EXPECT_EQ(g.info(sp).shape2, (Dims{4, 5}));
}

TEST(Shapes, HistPropagatesThroughMatmulLhsRows) {
  Graph g;
  const Id x = g.input("x", {4, 8});
  const Id y = g.input("y", {6, 8});
  const Id w = g.weight("w", {8, 3});
  const Id m = g.matmul(g.concat(0, {x, y}), w);
  const Id sp = g.split(0, m);
  EXPECT_EQ(g.info(sp).shape, (Dims{4, 3}));
  EXPECT_EQ(g.info(sp).shape2, (Dims{6, 3}));
}

TEST(Shapes, HistPropagatesThroughConvWeights) {
  // Paper Fig. 9: split 1 after a conv whose weights were concatenated on
  // the output-channel axis.
  Graph g;
  const Id x = g.input("x", {1, 8, 7, 7});
  const Id w1 = g.weight("w1", {4, 8, 3, 3});
  const Id w2 = g.weight("w2", {12, 8, 3, 3});
  const Id c = g.conv(x, g.concat(0, {w1, w2}), 1, 1, kPadSame);
  const Id sp = g.split(1, c);
  EXPECT_EQ(g.info(sp).shape, (Dims{1, 4, 7, 7}));
  EXPECT_EQ(g.info(sp).shape2, (Dims{1, 12, 7, 7}));
}

TEST(Shapes, HistSurvivesActivations) {
  Graph g;
  const Id a = g.input("a", {2, 3});
  const Id cat = g.concat(1, {a, a});
  const Id r = g.relu(cat);
  EXPECT_EQ(g.info(r).hist.size(), 1u);
}

TEST(Shapes, EnlargePads) {
  Graph g;
  const Id w = g.weight("w", {4, 8, 3, 3});
  const Id ref = g.weight("ref", {2, 2, 5, 5});
  const Id e = g.enlarge(w, ref);
  EXPECT_EQ(g.info(e).shape, (Dims{4, 8, 5, 5}));
}

TEST(Shapes, EnlargeOddParityFails) {
  Graph g;
  const Id w = g.weight("w", {4, 8, 3, 3});
  const Id ref = g.weight("ref", {2, 2, 4, 4});
  EXPECT_FALSE(g.try_add({Op::kEnlarge, 0, {}, {w, ref}}).has_value());
}

TEST(Shapes, EnlargeShrinkFails) {
  Graph g;
  const Id w = g.weight("w", {4, 8, 5, 5});
  const Id ref = g.weight("ref", {2, 2, 3, 3});
  EXPECT_FALSE(g.try_add({Op::kEnlarge, 0, {}, {w, ref}}).has_value());
}

TEST(Shapes, ReshapeChecksVolume) {
  Graph g;
  const Id x = g.input("x", {2, 6});
  EXPECT_EQ(g.info(g.reshape(x, {3, 4})).shape, (Dims{3, 4}));
  EXPECT_FALSE(g.try_add({Op::kReshape, 0, {}, {x, g.str("5_2")}}).has_value());
}

TEST(Shapes, MergeExpandsWeight) {
  Graph g;
  const Id w = g.weight("w", {8, 2, 3, 3});
  const Id m = g.merge(w, 2);
  EXPECT_EQ(g.info(m).shape, (Dims{8, 4, 3, 3}));
  EXPECT_TRUE(g.info(m).weight_only);
}

TEST(Shapes, PoolShapes) {
  Graph g;
  const Id x = g.input("x", {1, 4, 8, 8});
  EXPECT_EQ(g.info(g.poolmax(x, 2, 2, 2, 2, kPadValid)).shape,
            (Dims{1, 4, 4, 4}));
  EXPECT_EQ(g.info(g.poolavg(x, 3, 3, 1, 1, kPadSame)).shape,
            (Dims{1, 4, 8, 8}));
}

TEST(Shapes, InvalidActivationModeFails) {
  Graph g;
  const Id a = g.input("a", {2, 2});
  EXPECT_FALSE(g.try_add({Op::kMatmul, 0, {}, {g.num(9), a, a}}).has_value());
}

TEST(Shapes, WeightOnlyConcatIsPrecomputable) {
  Graph g;
  const Id w1 = g.weight("w1", {4, 4});
  const Id w2 = g.weight("w2", {4, 4});
  EXPECT_TRUE(g.info(g.concat(1, {w1, w2})).weight_only);
  const Id x = g.input("x", {4, 4});
  EXPECT_FALSE(g.info(g.concat(1, {w1, x})).weight_only);
}

}  // namespace
}  // namespace tensat
