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
  WorkStealingPool::RawFn invoke = nullptr;
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

namespace {
constexpr int64_t kInitialDequeCap = 64;
}  // namespace

InvitationDeque::InvitationDeque() : buf_(new Buf(kInitialDequeCap)) {}

InvitationDeque::~InvitationDeque() { delete buf_.load(std::memory_order_relaxed); }

void InvitationDeque::push(Job* job) {
  const int64_t b = bottom_.load(std::memory_order_seq_cst);
  const int64_t t = top_.load(std::memory_order_seq_cst);
  Buf* a = buf_.load(std::memory_order_relaxed);
  if (b - t >= a->cap) {
    grow(a, t, b);
    a = buf_.load(std::memory_order_relaxed);
  }
  // The release store on the cell is what publishes *job's fields to a
  // stealer's acquire load of the same cell.
  a->cells[b & a->mask].store(job, std::memory_order_release);
  bottom_.store(b + 1, std::memory_order_seq_cst);
}

Job* InvitationDeque::pop() {
  const int64_t b = bottom_.load(std::memory_order_seq_cst) - 1;
  Buf* a = buf_.load(std::memory_order_relaxed);
  bottom_.store(b, std::memory_order_seq_cst);
  int64_t t = top_.load(std::memory_order_seq_cst);
  if (t > b) {  // empty
    bottom_.store(b + 1, std::memory_order_seq_cst);
    return nullptr;
  }
  Job* job = a->cells[b & a->mask].load(std::memory_order_acquire);
  if (t < b) return job;  // more than one item left; no race possible
  // Last item: race the stealers through a CAS on top.
  const bool won = top_.compare_exchange_strong(
      t, t + 1, std::memory_order_seq_cst, std::memory_order_seq_cst);
  bottom_.store(b + 1, std::memory_order_seq_cst);
  return won ? job : nullptr;
}

Job* InvitationDeque::steal() {
  int64_t t = top_.load(std::memory_order_seq_cst);
  const int64_t b = bottom_.load(std::memory_order_seq_cst);
  if (t >= b) return nullptr;
  Buf* a = buf_.load(std::memory_order_acquire);
  Job* job = a->cells[t & a->mask].load(std::memory_order_acquire);
  // A failed CAS means the owner popped it or another thief won; the value
  // read above may then be stale (possibly from a retired buffer) and is
  // discarded unused.
  if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                    std::memory_order_seq_cst)) {
    return nullptr;
  }
  return job;
}

size_t InvitationDeque::size() const {
  const int64_t b = bottom_.load(std::memory_order_relaxed);
  const int64_t t = top_.load(std::memory_order_relaxed);
  return b > t ? static_cast<size_t>(b - t) : 0;
}

void InvitationDeque::grow(Buf* old, int64_t top, int64_t bottom) {
  Buf* bigger = new Buf(old->cap * 2);
  for (int64_t i = top; i < bottom; ++i) {
    bigger->cells[i & bigger->mask].store(
        old->cells[i & old->mask].load(std::memory_order_relaxed),
        std::memory_order_relaxed);
  }
  buf_.store(bigger, std::memory_order_release);
  // In-flight stealers may still read the old buffer's cells for indices in
  // [top, bottom) — identical values, and their CAS on top_ arbitrates — so
  // it must stay allocated until the deque itself dies.
  retired_.emplace_back(old);
}

}  // namespace pool_detail

namespace {
// The worker a pool thread belongs to, and to which pool. Worker-recursive
// for_each calls push invitations onto their own deque (lock-free); foreign
// threads go through the injection queue.
thread_local WorkStealingPool* tls_pool = nullptr;
thread_local void* tls_worker = nullptr;
}  // namespace

WorkStealingPool& WorkStealingPool::global() {
  static WorkStealingPool pool;
  return pool;
}

WorkStealingPool::~WorkStealingPool() {
  {
    const std::lock_guard<std::mutex> lock(sleep_mu_);
    stop_ = true;
  }
  sleep_cv_.notify_all();
  const size_t nw = worker_count_.load(std::memory_order_acquire);
  for (size_t i = 0; i < nw; ++i) {
    if (workers_[i]->thread.joinable()) workers_[i]->thread.join();
  }
  // Leftover invitations reference jobs that already completed (the caller
  // always self-completes before returning); just drop their references.
  for (size_t i = 0; i < nw; ++i) {
    while (pool_detail::Job* job = workers_[i]->deque.pop()) job->release();
  }
  for (pool_detail::Job* job : injected_) job->release();
}

void WorkStealingPool::ensure_workers(size_t want) {
  want = std::min(want, kMaxWorkers);
  if (worker_count_.load(std::memory_order_acquire) >= want) return;
  const std::lock_guard<std::mutex> lock(spawn_mu_);
  size_t have = worker_count_.load(std::memory_order_relaxed);
  while (have < want) {
    workers_[have] = std::make_unique<Worker>();
    workers_[have]->index = have;
    Worker* w = workers_[have].get();
    w->thread = std::thread([this, w] { worker_loop(w); });
    ++have;
    worker_count_.store(have, std::memory_order_release);
  }
}

void WorkStealingPool::submit(pool_detail::Job* job, size_t invitations) {
  Worker* self =
      (tls_pool == this) ? static_cast<Worker*>(tls_worker) : nullptr;
  if (self != nullptr) {
    for (size_t i = 0; i < invitations; ++i) self->deque.push(job);
  } else {
    const std::lock_guard<std::mutex> lock(inject_mu_);
    for (size_t i = 0; i < invitations; ++i) injected_.push_back(job);
    injected_size_.store(injected_.size(), std::memory_order_relaxed);
  }
  {
    // Empty critical section: a sleeper that scanned before the pushes
    // above has either reached wait() (the notify lands) or not yet locked
    // sleep_mu_ (its under-lock re-scan will find the work).
    const std::lock_guard<std::mutex> lock(sleep_mu_);
  }
  sleep_cv_.notify_all();
}

pool_detail::Job* WorkStealingPool::find_work(Worker* self) {
  if (self != nullptr) {
    if (pool_detail::Job* job = self->deque.pop()) return job;
  }
  {
    const std::lock_guard<std::mutex> lock(inject_mu_);
    if (!injected_.empty()) {
      pool_detail::Job* job = injected_.front();
      injected_.pop_front();
      injected_size_.store(injected_.size(), std::memory_order_relaxed);
      return job;
    }
  }
  const size_t nw = worker_count_.load(std::memory_order_acquire);
  const size_t start = self != nullptr ? self->index + 1 : 0;
  for (size_t k = 0; k < nw; ++k) {
    Worker* victim = workers_[(start + k) % nw].get();
    if (victim == self) continue;
    if (pool_detail::Job* job = victim->deque.steal()) {
      steals_.fetch_add(1, std::memory_order_relaxed);
      return job;
    }
  }
  return nullptr;
}

void WorkStealingPool::worker_loop(Worker* self) {
  tls_pool = this;
  tls_worker = self;
  for (;;) {
    pool_detail::Job* job = find_work(self);
    if (job == nullptr) {
      std::unique_lock<std::mutex> lock(sleep_mu_);
      if (stop_) return;
      job = find_work(self);  // re-scan under the lock: no lost wakeup
      if (job == nullptr) {
        sleep_cv_.wait(lock);
        continue;
      }
      lock.unlock();
    }
    job->run_chunks();
    job->release();
  }
}

void WorkStealingPool::for_each(size_t n, size_t participants, RawFn fn,
                                void* ctx) {
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
  // fine enough that stealing rebalances a skewed item-cost distribution.
  job->chunk = std::max<size_t>(1, n / (participants * 8));
  job->refs.store(static_cast<int>(participants), std::memory_order_relaxed);

  jobs_.fetch_add(1, std::memory_order_relaxed);
  invitations_.fetch_add(participants - 1, std::memory_order_relaxed);
  const uint64_t steals_before = steals_.load(std::memory_order_relaxed);
  // Sample the backlog across the WHOLE pool, before this call's own
  // invitations land. (The stat used to read only the calling worker's own
  // deque — a lane that is empty almost by definition at this point, since
  // the caller drains its own deque before submitting new work.)
  const size_t queue_depth_before =
      trace::Tracer::current() != nullptr ? queue_depth() : 0;

  submit(job, participants - 1);
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

  if (trace::Tracer::current() != nullptr) {
    // Scheduling-dependent by nature -> kStat, never kCounter (the
    // deterministic digest must stay thread-count-invariant).
    trace::stat("pool/steals",
                static_cast<int64_t>(
                    steals_.load(std::memory_order_relaxed) - steals_before));
    trace::stat("pool/queue_depth", static_cast<int64_t>(queue_depth_before));
  }

  if (error) std::rethrow_exception(error);
}

size_t WorkStealingPool::queue_depth() const {
  // Lock-free on purpose: the tracer's pool/queue_depth stat samples this
  // on every traced for_each dispatch, so it must cost a handful of relaxed
  // loads, not an inject_mu_ acquisition racing real submitters.
  size_t depth = injected_size_.load(std::memory_order_relaxed);
  const size_t count = worker_count_.load(std::memory_order_acquire);
  for (size_t i = 0; i < count; ++i) depth += workers_[i]->deque.size();
  return depth;
}

WorkStealingPool::Stats WorkStealingPool::stats() const {
  Stats s;
  s.jobs = jobs_.load(std::memory_order_relaxed);
  s.invitations = invitations_.load(std::memory_order_relaxed);
  s.steals = steals_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace tensat
