// Fork-join fan-out for the exploration loop: runs fn(0..n-1) across the
// persistent worker pool (support/pool.h) fed by an atomic chunk cursor.
// Built for the pattern searches, apply planning and extraction cores,
// where determinism comes from the caller writing results into per-index
// slots and merging in index order — worker scheduling then cannot
// influence anything observable.
//
// parallel_for used to spawn fresh std::threads per call; dispatch cost
// (tens of microseconds per thread) exceeded many whole sub-millisecond
// regions. The pool-backed version dispatches in ~1 allocation, one queue
// push and a condvar wake.
#pragma once

#include <algorithm>
#include <memory>
#include <thread>
#include <type_traits>

#include "support/pool.h"

namespace tensat {

/// Resolves a thread-count hint: 0 means "use the hardware concurrency"
/// (never less than 1 even when the runtime cannot report it). The count is
/// queried once per process: hardware_concurrency() asks the OS on every
/// call (about 1.5 us with glibc 2.36 on a 4-core x86 host), and every
/// parallel_for with a hint of 0 resolves it.
inline size_t resolve_threads(size_t hint) {
  if (hint != 0) return hint;
  static const size_t hw = [] {
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? size_t{1} : static_cast<size_t>(n);
  }();
  return hw;
}

/// Runs fn(i) for every i in [0, n) using up to `threads` participants of
/// the process-wide worker pool (0 = one per hardware thread; the
/// calling thread always participates). Items are claimed in chunks from an
/// atomic cursor, so the item-to-worker assignment is nondeterministic — fn
/// must only write state owned by its own index. Returns only once every
/// item is accounted for: either all of fn(0..n-1) ran, or an fn threw and
/// the first exception is rethrown here after the remaining items were
/// explicitly skipped (never silently dropped). The pool stays usable after
/// an exception.
template <typename Fn>
void parallel_for(size_t n, size_t threads, Fn&& fn) {
  threads = std::min(resolve_threads(threads), n);
  if (threads <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  using F = std::remove_reference_t<Fn>;
  WorkerPool::global().for_each(
      n, threads, [](void* ctx, size_t i) { (*static_cast<F*>(ctx))(i); },
      const_cast<void*>(static_cast<const void*>(std::addressof(fn))));
}

}  // namespace tensat
