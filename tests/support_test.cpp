#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include <atomic>

#include "support/check.h"
#include "support/hash.h"
#include "support/parallel.h"
#include "support/rng.h"
#include "support/small_vec.h"
#include "support/symbol.h"
#include "support/timer.h"

namespace tensat {
namespace {

TEST(Symbol, InternsIdentically) {
  Symbol a("hello");
  Symbol b("hello");
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.id(), b.id());
  EXPECT_EQ(a.str(), "hello");
}

TEST(Symbol, DistinctStringsDistinctIds) {
  Symbol a("alpha");
  Symbol b("beta");
  EXPECT_NE(a, b);
  EXPECT_NE(a.id(), b.id());
}

TEST(Symbol, EmptyDefault) {
  Symbol s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s, Symbol(""));
}

TEST(Symbol, HashMatchesEquality) {
  std::hash<Symbol> h;
  EXPECT_EQ(h(Symbol("x")), h(Symbol("x")));
}

TEST(Symbol, ConcurrentInterningIsSafe) {
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<uint32_t> ids(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &ids] { ids[t] = Symbol("shared-name").id(); });
  }
  for (auto& th : threads) th.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(ids[0], ids[t]);
}

TEST(Check, ThrowsWithMessage) {
  try {
    TENSAT_CHECK(1 == 2, "math is broken: " << 42);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("math is broken: 42"), std::string::npos);
  }
}

TEST(Check, PassesSilently) { TENSAT_CHECK(true, "never"); }

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, RangeInclusive) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.range(3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 3u);  // all values hit
}

TEST(Rng, NormalRoughlyCentered) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) sum += rng.normal();
  EXPECT_NEAR(sum / n, 0.0, 0.05);
}

TEST(Hash, CombineChangesSeed) {
  size_t a = 0, b = 0;
  hash_combine(a, 1);
  hash_combine(b, 2);
  EXPECT_NE(a, b);
}

TEST(Hash, OrderSensitive) {
  size_t a = 0, b = 0;
  hash_combine(a, 1);
  hash_combine(a, 2);
  hash_combine(b, 2);
  hash_combine(b, 1);
  EXPECT_NE(a, b);
}

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  for (size_t threads : {size_t{1}, size_t{3}, size_t{8}, size_t{0}}) {
    constexpr size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    parallel_for(kN, threads, [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ParallelFor, HandlesEmptyAndMoreThreadsThanItems) {
  parallel_for(0, 8, [](size_t) { FAIL() << "no items to run"; });
  std::vector<std::atomic<int>> hits(2);
  parallel_for(2, 16, [&](size_t i) { hits[i].fetch_add(1); });
  EXPECT_EQ(hits[0].load(), 1);
  EXPECT_EQ(hits[1].load(), 1);
}

TEST(ParallelFor, RethrowsWorkerException) {
  EXPECT_THROW(
      parallel_for(64, 4,
                   [](size_t i) {
                     if (i == 13) throw Error("boom");
                   }),
      Error);
}

TEST(ParallelFor, ResolveThreadsNeverZero) {
  EXPECT_GE(resolve_threads(0), 1u);
  EXPECT_EQ(resolve_threads(5), 5u);
}

TEST(SmallVec, GrowsPastInlineCapacity) {
  SmallVec<int32_t, 2> v;
  EXPECT_TRUE(v.empty());
  EXPECT_TRUE(v.is_inline());
  for (int32_t i = 0; i < 2; ++i) v.push_back(i);
  EXPECT_TRUE(v.is_inline());
  for (int32_t i = 2; i < 8; ++i) v.push_back(i);  // heap blocks of 4, then 8
  EXPECT_FALSE(v.is_inline());
  ASSERT_EQ(v.size(), 8u);
  for (int32_t i = 0; i < 8; ++i) EXPECT_EQ(v[i], i);
  v.push_back(v[0]);  // an element of the full vector itself: it regrows
  ASSERT_EQ(v.size(), 9u);
  EXPECT_EQ(v[8], 0);
  for (int32_t i = 0; i < 8; ++i) EXPECT_EQ(v[i], i);
}

TEST(SmallVec, CopyAndMoveKeepElements) {
  const SmallVec<int32_t, 2> small{1, 2};
  const SmallVec<int32_t, 2> big{1, 2, 3, 4, 5};
  for (const auto* src : {&small, &big}) {
    SmallVec<int32_t, 2> copy(*src);
    EXPECT_EQ(copy, *src);
    SmallVec<int32_t, 2> assigned{9};
    assigned = *src;
    EXPECT_EQ(assigned, *src);
    SmallVec<int32_t, 2> moved(std::move(copy));
    EXPECT_EQ(moved, *src);
    EXPECT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move): defined
    SmallVec<int32_t, 2> move_assigned{7, 8, 9};
    move_assigned = std::move(moved);
    EXPECT_EQ(move_assigned, *src);
    EXPECT_TRUE(moved.empty());  // NOLINT(bugprone-use-after-move): defined
  }
  // A copy of a heap vector owns its own block.
  SmallVec<int32_t, 2> copy(big);
  copy[0] = 42;
  EXPECT_EQ(big[0], 1);
}

TEST(SmallVec, SelfAssignmentIsANoOp) {
  SmallVec<int32_t, 2> small{1, 2};
  SmallVec<int32_t, 2> big{1, 2, 3};
  auto& small_ref = small;
  auto& big_ref = big;
  small = small_ref;
  big = big_ref;
  EXPECT_EQ(small, (SmallVec<int32_t, 2>{1, 2}));
  EXPECT_EQ(big, (SmallVec<int32_t, 2>{1, 2, 3}));
  small = std::move(small_ref);
  big = std::move(big_ref);
  EXPECT_EQ(small, (SmallVec<int32_t, 2>{1, 2}));
  EXPECT_EQ(big, (SmallVec<int32_t, 2>{1, 2, 3}));
}

TEST(SmallVec, EqualityIgnoresWhereElementsLive) {
  SmallVec<int32_t, 2> heap{1, 2, 3};
  heap.clear();  // keeps its heap block
  heap.push_back(4);
  heap.push_back(5);
  ASSERT_FALSE(heap.is_inline());
  const SmallVec<int32_t, 2> inline_same{4, 5};
  ASSERT_TRUE(inline_same.is_inline());
  EXPECT_EQ(heap, inline_same);
  EXPECT_NE(heap, (SmallVec<int32_t, 2>{4, 6}));
  EXPECT_NE(heap, (SmallVec<int32_t, 2>{4}));
  const int32_t raw[] = {4, 5};
  heap.assign(raw, raw + 2);
  EXPECT_EQ(heap, inline_same);
}

TEST(Timer, MeasuresElapsed) {
  Timer t;
  EXPECT_GE(t.seconds(), 0.0);
  t.reset();
  EXPECT_LT(t.seconds(), 1.0);
}

}  // namespace
}  // namespace tensat
