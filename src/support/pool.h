// A persistent work-stealing pool behind parallel_for (support/parallel.h).
//
// The exploration loop dispatches many sub-millisecond fork-join regions
// (pattern sweeps, apply planning, cycle row-DP waves, extraction cores).
// Spawning std::threads per region costs tens of microseconds each — more
// than some whole regions — which is why parallel sweeps under the
// thread-spawning loop this pool replaced sat at ~1x. The pool starts its
// workers lazily, keeps them alive for the process lifetime, and hands them
// work through per-worker Chase-Lev deques, so dispatching a region costs
// roughly one heap allocation plus a condition-variable wake.
//
// Scheduling model ("invitations"):
//   * A fork-join call (for_each) builds one heap-allocated Job — the item
//     cursor, completion count, and error slot — and publishes
//     `participants - 1` *invitations* to it: Job pointers pushed onto the
//     calling worker's own deque (or onto a mutex-guarded injection queue
//     when the caller is not a pool worker, e.g. the main thread).
//   * Each invitation entitles exactly one worker to join that job, so a
//     job's concurrency never exceeds the participant count the caller
//     asked for, even while unrelated jobs run on the same pool.
//   * Idle workers pop their own deque from the bottom and steal from
//     other workers' deques from the top (Chase-Lev); both ends fall back
//     to the injection queue.
//   * Workers joining a job claim *chunks* of the index space from the
//     job's atomic cursor. The item-to-worker assignment is therefore
//     nondeterministic — exactly the contract parallel_for always had:
//     callers write per-index slots and merge in index order.
//
// Join semantics (the partial-completion fix): for_each returns only after
// every index in [0, n) is accounted for — either its fn ran, or a prior
// exception cancelled the job and the index was explicitly skipped *and
// counted*. On cancellation the first exception is rethrown; there is no
// silent path where the call returns normally with unrun items. The pool
// stays fully usable after an exception (all job state is per-call).
//
// Nested submission is deadlock-free: the caller of for_each always
// participates and drives its own job's cursor to exhaustion, so a job can
// only ever wait on chunks that other threads are *actively executing* —
// never on an invitation nobody accepted.
//
// The caller never blocks on invitation pickup: once the last chunk
// completes, for_each returns and leftover invitations become no-ops
// (the Job control block is reference-counted and outlives them).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace tensat {

namespace pool_detail {
struct Job;

/// Chase-Lev work-stealing deque of Job invitations. The owning worker
/// pushes and pops at the bottom; any thread may steal from the top. Cell
/// accesses are release/acquire so the publication of the pointed-to Job is
/// carried by the cell itself (keeps TSan's happens-before graph exact);
/// top/bottom use seq_cst — this is the textbook algorithm, deliberately
/// not the fence-minimized variant.
class InvitationDeque {
 public:
  InvitationDeque();
  ~InvitationDeque();
  InvitationDeque(const InvitationDeque&) = delete;
  InvitationDeque& operator=(const InvitationDeque&) = delete;

  void push(Job* job);  // owner thread only
  Job* pop();           // owner thread only
  Job* steal();         // any thread; nullptr on empty or lost race
  size_t size() const;  // approximate (racy read of both ends)

 private:
  struct Buf {
    explicit Buf(int64_t c) : cap(c), mask(c - 1), cells(new std::atomic<Job*>[c]) {}
    const int64_t cap;
    const int64_t mask;  // cap is a power of two
    std::unique_ptr<std::atomic<Job*>[]> cells;
  };

  void grow(Buf* old, int64_t top, int64_t bottom);  // owner thread only

  std::atomic<int64_t> top_{0};
  std::atomic<int64_t> bottom_{0};
  std::atomic<Buf*> buf_;
  // Replaced buffers stay alive until the deque dies: a stealer may still
  // be reading a cell of an old buffer; its CAS on top_ rejects stale wins.
  std::vector<std::unique_ptr<Buf>> retired_;  // owner thread only
};

}  // namespace pool_detail

class WorkStealingPool {
 public:
  /// The process-wide pool shared by search, apply planning, the cycle
  /// row-DP, and extraction cores. Constructed on first use (no workers
  /// until the first multi-participant job); destroyed — workers joined —
  /// at static destruction, so LSan/TSan see a clean shutdown.
  static WorkStealingPool& global();

  ~WorkStealingPool();
  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  using RawFn = void (*)(void* ctx, size_t index);

  /// Runs fn(ctx, i) for every i in [0, n) with up to `participants`
  /// threads (the caller included; clamped to n and to kMaxWorkers + 1).
  /// Participants above the hardware concurrency are honored — the pool
  /// grows to the requested width — so oversubscribed configurations
  /// (e.g. 8-thread determinism tests on a 1-core machine) exercise real
  /// concurrency interleavings. Blocks until all items are accounted for;
  /// rethrows the first exception (see the join-semantics note above).
  void for_each(size_t n, size_t participants, RawFn fn, void* ctx);

  /// Cumulative telemetry (monotone, process lifetime).
  struct Stats {
    uint64_t jobs = 0;         // for_each calls that took the parallel path
    uint64_t invitations = 0;  // invitations published
    uint64_t steals = 0;       // successful deque steals
  };
  Stats stats() const;

  /// Pending invitations across the whole pool: every worker deque plus the
  /// injection queue. Approximate (each deque is read racily while owners
  /// push/pop), but covers ALL lanes — unlike a single worker's own deque,
  /// which is empty almost by definition whenever that worker is the one
  /// asking. This is the number the pool-utilization gauge wants: how much
  /// published work is waiting for a thread, wherever it is queued.
  size_t queue_depth() const;

  size_t worker_count() const {
    return worker_count_.load(std::memory_order_acquire);
  }

  /// Hard cap on pool width; participants clamp to kMaxWorkers + 1.
  static constexpr size_t kMaxWorkers = 64;

 private:
  struct Worker {
    pool_detail::InvitationDeque deque;
    std::thread thread;
    size_t index = 0;
  };

  WorkStealingPool() = default;

  void ensure_workers(size_t want);
  void submit(pool_detail::Job* job, size_t invitations);
  pool_detail::Job* find_work(Worker* self);
  void worker_loop(Worker* self);

  // Fixed-capacity slot array so stealers can scan concurrently with lazy
  // spawning: slots [0, worker_count_) are fully constructed (release/
  // acquire on the count publishes them).
  std::unique_ptr<Worker> workers_[kMaxWorkers];
  std::atomic<size_t> worker_count_{0};
  std::mutex spawn_mu_;

  // Submission path for non-worker callers (the main thread, test threads).
  // injected_size_ mirrors injected_.size() (updated under inject_mu_ at
  // every push/pop) so queue_depth() can read the backlog without taking
  // the lock — it is sampled per traced dispatch.
  std::mutex inject_mu_;
  std::deque<pool_detail::Job*> injected_;
  std::atomic<size_t> injected_size_{0};

  // Sleep/wake. Producers take sleep_mu_ around the notify and sleepers
  // re-scan for work under it before waiting, so a wake can never be lost;
  // a missed invitation would otherwise only cost parallelism (the caller
  // self-completes), but there is no reason to accept even that.
  std::mutex sleep_mu_;
  std::condition_variable sleep_cv_;
  bool stop_ = false;

  std::atomic<uint64_t> jobs_{0};
  std::atomic<uint64_t> invitations_{0};
  std::atomic<uint64_t> steals_{0};
};

}  // namespace tensat
