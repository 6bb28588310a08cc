// A persistent worker pool behind parallel_for (support/parallel.h).
//
// The exploration loop dispatches many sub-millisecond fork-join regions
// (pattern sweeps, apply planning, extraction cores).
// Spawning std::threads per region costs tens of microseconds each — more
// than some whole regions — which is why parallel sweeps under the
// thread-spawning loop this pool replaced sat at ~1x. The pool starts its
// workers lazily and keeps them alive for the process lifetime, so
// dispatching a region costs roughly one heap allocation, one queue push
// and a condition-variable wake.
//
// Scheduling model ("invitations"):
//   * A fork-join call (for_each) builds one heap-allocated Job — the item
//     cursor, completion count, and error slot — and pushes
//     `participants - 1` *invitations* to it (Job pointers) onto the pool's
//     one mutex-guarded FIFO queue, whichever thread calls it.
//   * Each invitation entitles exactly one idle worker to join that job, so
//     a job's concurrency never exceeds the participant count the caller
//     asked for, even while unrelated jobs run on the same pool.
//   * Threads joining a job claim *chunks* of the index space from the
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
// never on an invitation nobody accepted. A worker that calls for_each
// therefore needs no queue of its own.
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
#include <mutex>
#include <thread>
#include <vector>

namespace tensat {

namespace pool_detail {
struct Job;
}  // namespace pool_detail

class WorkerPool {
 public:
  /// The process-wide pool shared by search, apply planning and extraction
  /// cores. Constructed on first use (no workers until the first
  /// multi-participant job); destroyed — workers joined — at static
  /// destruction, so LSan/TSan see a clean shutdown.
  static WorkerPool& global();

  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

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
    uint64_t jobs = 0;  // for_each calls that took the parallel path
  };
  Stats stats() const;

  /// Invitations waiting in the queue for an idle worker. Lock-free: read
  /// per traced dispatch and per service request.
  size_t queue_depth() const {
    return queue_size_.load(std::memory_order_relaxed);
  }

  size_t worker_count() const {
    return worker_count_.load(std::memory_order_acquire);
  }

  /// Hard cap on pool width; participants clamp to kMaxWorkers + 1.
  static constexpr size_t kMaxWorkers = 64;

 private:
  WorkerPool() = default;

  void ensure_workers(size_t want);
  void worker_loop();

  // Guards the queue, stop_ and threads_. Workers sleep on cv_ until the
  // queue is nonempty or stop_ is set; at shutdown they drain the queue
  // (stale invitations, no-ops by then) before they exit.
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<pool_detail::Job*> queue_;
  bool stop_ = false;
  std::vector<std::thread> threads_;

  // Mirrors of queue_.size() and threads_.size(), stored under mu_, so the
  // accessors above and for_each's spawn check read them without the lock.
  std::atomic<size_t> queue_size_{0};
  std::atomic<size_t> worker_count_{0};
  std::atomic<uint64_t> jobs_{0};
};

}  // namespace tensat
