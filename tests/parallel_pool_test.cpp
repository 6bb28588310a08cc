// Concurrency battery for the persistent worker pool behind parallel_for
// (support/pool.h). The contract under test:
//
//   * parallel_for(n, t, fn) returns normally => fn ran exactly once for
//     every index in [0, n); it throws => the first exception is rethrown
//     and the pool is fully usable afterwards. There is no third outcome —
//     the partial-completion hazard (returning normally with silently
//     skipped items) is what the pool's join point fixed.
//   * A job never runs more than `t` items concurrently (invitations cap
//     per-job concurrency), even while unrelated jobs share the pool.
//   * Nested and recursive submission from worker threads is deadlock-free.
//   * Oversubscription (participants far beyond the hardware concurrency,
//     n far beyond the worker count) works: this suite's 8-thread runs on a
//     1-core CI box are the determinism tests' bread and butter.
//
// Run under both ASan and TSan in CI; the TSan stress lane repeats it with
// `ctest --repeat until-fail:3` to surface scheduling-dependent flakes.
#include <atomic>
#include <cstdint>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "support/parallel.h"
#include "support/pool.h"

namespace tensat {
namespace {

TEST(ParallelPoolTest, ZeroItemsRunsNothing) {
  parallel_for(0, 8, [](size_t) { FAIL() << "no items to run"; });
}

TEST(ParallelPoolTest, OneItemRunsInline) {
  size_t runs = 0;
  parallel_for(1, 8, [&](size_t i) {
    EXPECT_EQ(i, 0u);
    ++runs;
  });
  EXPECT_EQ(runs, 1u);
}

TEST(ParallelPoolTest, EveryIndexRunsExactlyOnce) {
  for (const size_t threads : {2u, 3u, 8u}) {
    for (const size_t n : {2u, 7u, 64u, 1000u}) {
      std::vector<std::atomic<uint32_t>> hits(n);
      parallel_for(n, threads,
                   [&](size_t i) { hits[i].fetch_add(1, std::memory_order_relaxed); });
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i].load(), 1u) << "n=" << n << " threads=" << threads
                                      << " index=" << i;
      }
    }
  }
}

TEST(ParallelPoolTest, OversubscriptionFarBeyondHardware) {
  // n >> workers and participants >> hardware_concurrency: the pool grows
  // to the requested width (clamped to kMaxWorkers + 1) instead of
  // quietly degrading to the core count.
  constexpr size_t kN = 20000;
  std::vector<std::atomic<uint8_t>> hits(kN);
  parallel_for(kN, 8, [&](size_t i) { hits[i].fetch_add(1); });
  parallel_for(kN, WorkerPool::kMaxWorkers + 9,  // clamps, must not break
               [&](size_t i) { hits[i].fetch_add(1); });
  size_t total = 0;
  for (size_t i = 0; i < kN; ++i) total += hits[i].load();
  EXPECT_EQ(total, 2 * kN);
}

TEST(ParallelPoolTest, PerJobConcurrencyCappedByThreadCount) {
  constexpr size_t kParticipants = 3;
  std::atomic<int> cur{0};
  std::atomic<int> peak{0};
  parallel_for(256, kParticipants, [&](size_t) {
    const int c = cur.fetch_add(1, std::memory_order_acq_rel) + 1;
    int p = peak.load(std::memory_order_relaxed);
    while (c > p && !peak.compare_exchange_weak(p, c)) {
    }
    for (volatile int spin = 0; spin < 200; ++spin) {
    }
    cur.fetch_sub(1, std::memory_order_acq_rel);
  });
  EXPECT_LE(peak.load(), static_cast<int>(kParticipants));
  EXPECT_GE(peak.load(), 1);
}

TEST(ParallelPoolTest, NestedSubmissionFromWorkers) {
  std::atomic<uint64_t> total{0};
  parallel_for(8, 4, [&](size_t) {
    parallel_for(64, 4, [&](size_t) { total.fetch_add(1, std::memory_order_relaxed); });
  });
  EXPECT_EQ(total.load(), 8u * 64u);
}

namespace {
uint64_t recursive_count(size_t depth) {
  if (depth == 0) return 1;
  std::atomic<uint64_t> sum{0};
  parallel_for(2, 2, [&](size_t) {
    sum.fetch_add(recursive_count(depth - 1), std::memory_order_relaxed);
  });
  return sum.load();
}
}  // namespace

TEST(ParallelPoolTest, RecursiveForkJoin) {
  EXPECT_EQ(recursive_count(6), 64u);  // 2^6 leaves
}

TEST(ParallelPoolTest, FirstExceptionRethrownAndPoolUsableAfter) {
  for (int round = 0; round < 25; ++round) {
    try {
      parallel_for(128, 8, [&](size_t i) {
        if (i % 16 == 3) throw std::runtime_error("boom " + std::to_string(i));
      });
      FAIL() << "an exception must propagate";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind("boom ", 0), 0u);
    }
    // The pool must be fully usable immediately after a failed job.
    std::vector<std::atomic<uint8_t>> hits(64);
    parallel_for(64, 8, [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < 64; ++i) ASSERT_EQ(hits[i].load(), 1u);
  }
}

TEST(ParallelPoolTest, ExceptionTypePreserved) {
  struct Custom {};
  EXPECT_THROW(parallel_for(32, 4, [](size_t i) {
    if (i == 7) throw Custom{};
  }),
               Custom);
}

// Regression for the partial-completion hazard: every call must end in one
// of exactly two states — returned normally with every index run once, or
// thrown. A normal return with unrun items (the old spawning
// implementation's failure path skipped unclaimed indices; a buggy join
// could also return while chunks are still in flight) must never happen,
// and the join must not return while any fn call is still executing.
TEST(ParallelPoolTest, AllItemsRanOrExceptionThrown) {
  std::mt19937 rng(20260808);
  for (int round = 0; round < 200; ++round) {
    const size_t n = 1 + rng() % 300;
    const size_t threads = 1 + rng() % 10;
    const size_t bomb = rng() % (2 * n);  // ~50% of rounds actually throw
    std::vector<std::atomic<uint8_t>> ran(n);
    std::atomic<int> in_flight{0};
    bool threw = false;
    try {
      parallel_for(n, threads, [&](size_t i) {
        in_flight.fetch_add(1, std::memory_order_acq_rel);
        if (i == bomb) {
          in_flight.fetch_sub(1, std::memory_order_acq_rel);
          throw std::runtime_error("bomb");
        }
        ran[i].fetch_add(1, std::memory_order_relaxed);
        in_flight.fetch_sub(1, std::memory_order_acq_rel);
      });
    } catch (const std::runtime_error&) {
      threw = true;
    }
    ASSERT_EQ(in_flight.load(), 0)
        << "join returned while an fn call was still executing";
    if (!threw) {
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(ran[i].load(), 1u)
            << "normal return with unrun/duplicated index " << i << " (n=" << n
            << ", threads=" << threads << ")";
      }
    }
  }
}

// Seeded fuzz: interleave the three workload shapes the pool serves in
// production — search-shaped (read shared state, write a per-index slot),
// plan-shaped (build per-index structures), extract-shaped (nested
// submission) — with occasional exceptions, and check per-index results
// against a serial replay every round.
TEST(ParallelPoolTest, SeededFuzzInterleavedWorkloads) {
  std::mt19937 rng(0xC0FFEE);
  const std::vector<int> shared = [] {
    std::vector<int> v(512);
    std::iota(v.begin(), v.end(), 1);
    return v;
  }();
  for (int round = 0; round < 120; ++round) {
    const size_t n = rng() % 200;
    const size_t threads = 1 + rng() % 9;
    const int shape = static_cast<int>(rng() % 3);
    const bool with_bomb = rng() % 5 == 0;
    const size_t bomb = n == 0 ? 0 : rng() % n;

    auto item_value = [&](size_t i) -> int64_t {
      switch (shape) {
        case 0: {  // search-shaped: fold over shared read-only state
          int64_t acc = 0;
          for (size_t k = i % 7; k < shared.size(); k += 7) acc += shared[k];
          return acc + static_cast<int64_t>(i);
        }
        case 1: {  // plan-shaped: build and summarize a per-index structure
          std::vector<int64_t> staged;
          for (size_t k = 0; k <= i % 17; ++k)
            staged.push_back(static_cast<int64_t>(i * 31 + k));
          int64_t acc = 0;
          for (int64_t v : staged) acc = acc * 3 + v;
          return acc;
        }
        default: {  // extract-shaped: nested fork-join per item
          std::atomic<int64_t> acc{0};
          parallel_for(8, 2, [&](size_t k) {
            acc.fetch_add(static_cast<int64_t>((i + 1) * (k + 1)),
                          std::memory_order_relaxed);
          });
          return acc.load();
        }
      }
    };

    std::vector<int64_t> expect(n);
    for (size_t i = 0; i < n; ++i) expect[i] = item_value(i);

    std::vector<int64_t> got(n, -1);
    bool threw = false;
    try {
      parallel_for(n, threads, [&](size_t i) {
        if (with_bomb && i == bomb) throw std::logic_error("fuzz bomb");
        got[i] = item_value(i);
      });
    } catch (const std::logic_error&) {
      threw = true;
    }
    if (with_bomb && n > 0) {
      EXPECT_TRUE(threw) << "round " << round;
    } else {
      ASSERT_FALSE(threw) << "round " << round;
      ASSERT_EQ(got, expect) << "round " << round << " shape " << shape
                             << " threads " << threads;
    }
  }
}

TEST(ParallelPoolTest, TelemetryCountersAreMonotone) {
  auto& pool = WorkerPool::global();
  const auto before = pool.stats();
  std::atomic<uint64_t> sink{0};
  parallel_for(1000, 4, [&](size_t i) { sink.fetch_add(i, std::memory_order_relaxed); });
  const auto after = pool.stats();
  EXPECT_GT(after.jobs, before.jobs);
  EXPECT_GE(pool.worker_count(), 3u);
  EXPECT_EQ(sink.load(), 1000u * 999u / 2);
}

// queue_depth() is the backlog of the pool's one queue: invitations no idle
// worker has picked up yet. Here the backlog builds while every worker is
// pinned in another job.
TEST(ParallelPoolTest, QueueDepthCountsUnclaimedInvitations) {
  auto& pool = WorkerPool::global();
  parallel_for(64, 4, [](size_t) {});  // warm up: spawn workers
  const size_t workers = pool.worker_count();
  ASSERT_GE(workers, 3u);

  std::atomic<size_t> entered{0};
  std::atomic<bool> release{false};
  // Pin every worker (and the submitting thread) in a spinning job.
  std::thread blocker([&] {
    parallel_for(workers + 1, workers + 1, [&](size_t) {
      entered.fetch_add(1, std::memory_order_acq_rel);
      while (!release.load(std::memory_order_acquire)) std::this_thread::yield();
    });
  });
  while (entered.load(std::memory_order_acquire) < workers + 1)
    std::this_thread::yield();

  // With all workers pinned, the submission self-completes on the calling
  // thread; its stale invitations stay queued behind the spinning job.
  std::atomic<uint64_t> sink{0};
  parallel_for(3, 3, [&](size_t i) { sink.fetch_add(i + 1); });
  EXPECT_EQ(sink.load(), 6u);
  EXPECT_GE(pool.queue_depth(), 2u);  // the two unclaimed invitations

  release.store(true, std::memory_order_release);
  blocker.join();
  // Workers drain the stale invitations (no-ops); the pool stays usable.
  parallel_for(64, 4, [](size_t) {});
}

}  // namespace
}  // namespace tensat
