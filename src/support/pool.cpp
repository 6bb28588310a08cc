#include "support/pool.h"

#include <algorithm>
#include <exception>
#include <utility>

#include "trace/trace.h"

namespace tensat {

namespace pool_detail {

/// Fork-join control block for one for_each call. Heap-allocated and
/// reference-counted: the caller holds one reference, every published
/// invitation holds one. The caller returns as soon as all items are
/// accounted for; a stale invitation accepted later finds the cursor
/// exhausted, touches neither fn nor ctx (both may dangle by then), and
/// just drops its reference.
struct Job {
  WorkerPool::RawFn invoke = nullptr;
  void* ctx = nullptr;
  size_t n = 0;
  size_t chunk = 1;

  std::atomic<size_t> next{0};       // item cursor (chunked claims)
  std::atomic<size_t> done{0};       // items accounted for (ran or skipped)
  std::atomic<bool> cancelled{false};
  std::atomic<int> refs{0};

  std::mutex mu;                // guards error; pairs with cv
  std::condition_variable cv;   // caller waits here for done == n
  std::exception_ptr error;     // first exception, set once under mu

  /// Claims and runs chunks until the cursor is exhausted. Every claimed
  /// index is counted in `done` even when cancellation skips its fn — the
  /// join point below can therefore guarantee all-items-ran-or-thrown.
  void run_chunks() {
    for (;;) {
      const size_t begin = next.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= n) return;
      const size_t end = std::min(begin + chunk, n);
      if (!cancelled.load(std::memory_order_relaxed)) {
        try {
          for (size_t i = begin; i < end; ++i) {
            if (cancelled.load(std::memory_order_relaxed)) break;
            invoke(ctx, i);
          }
        } catch (...) {
          const std::lock_guard<std::mutex> lock(mu);
          if (!error) error = std::current_exception();
          cancelled.store(true, std::memory_order_relaxed);
        }
      }
      const size_t finished =
          done.fetch_add(end - begin, std::memory_order_acq_rel) + (end - begin);
      if (finished == n) {
        // Lock then notify so the caller is either not yet waiting (its
        // predicate re-check sees done == n) or inside wait (gets woken).
        const std::lock_guard<std::mutex> lock(mu);
        cv.notify_all();
      }
    }
  }

  void release() {
    if (refs.fetch_sub(1, std::memory_order_acq_rel) == 1) delete this;
  }
};

}  // namespace pool_detail

WorkerPool& WorkerPool::global() {
  static WorkerPool pool;
  return pool;
}

WorkerPool::~WorkerPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void WorkerPool::ensure_workers(size_t want) {
  if (worker_count_.load(std::memory_order_acquire) >= want) return;
  const std::lock_guard<std::mutex> lock(mu_);
  while (threads_.size() < want)
    threads_.emplace_back([this] { worker_loop(); });
  worker_count_.store(threads_.size(), std::memory_order_release);
}

void WorkerPool::worker_loop() {
  for (;;) {
    pool_detail::Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping, and nothing left to drop
      job = queue_.front();
      queue_.pop_front();
      queue_size_.store(queue_.size(), std::memory_order_relaxed);
    }
    job->run_chunks();
    job->release();
  }
}

void WorkerPool::for_each(size_t n, size_t participants, RawFn fn, void* ctx) {
  if (n == 0) return;
  participants = std::min({participants, n, kMaxWorkers + 1});
  if (participants <= 1) {
    for (size_t i = 0; i < n; ++i) fn(ctx, i);
    return;
  }
  ensure_workers(participants - 1);

  auto* job = new pool_detail::Job;
  job->invoke = fn;
  job->ctx = ctx;
  job->n = n;
  // ~8 chunks per participant: coarse enough to amortize the cursor RMW,
  // fine enough that a skewed item-cost distribution still balances.
  job->chunk = std::max<size_t>(1, n / (participants * 8));
  job->refs.store(static_cast<int>(participants), std::memory_order_relaxed);

  jobs_.fetch_add(1, std::memory_order_relaxed);
  // The backlog this call's invitations queue behind. Scheduling-dependent
  // by nature -> kStat, never kCounter (the deterministic digest must stay
  // thread-count-invariant).
  if (trace::Tracer::current() != nullptr)
    trace::stat("pool/queue_depth", static_cast<int64_t>(queue_depth()));

  {
    const std::lock_guard<std::mutex> lock(mu_);
    queue_.insert(queue_.end(), participants - 1, job);
    queue_size_.store(queue_.size(), std::memory_order_relaxed);
  }
  cv_.notify_all();
  job->run_chunks();
  {
    std::unique_lock<std::mutex> lock(job->mu);
    job->cv.wait(lock, [job] {
      return job->done.load(std::memory_order_acquire) == job->n;
    });
  }
  // All chunk executions are finished (done == n with acquire ordering), so
  // `error` is final; stale invitations never touch it. Move it out rather
  // than copy it: a stale invitation's release() may delete the Job on a
  // worker, and a copy left inside would drop the exception's last
  // reference there, after the caller has rethrown and caught it.
  std::exception_ptr error = std::move(job->error);
  job->release();
  if (error) std::rethrow_exception(error);
}

WorkerPool::Stats WorkerPool::stats() const {
  Stats s;
  s.jobs = jobs_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace tensat
