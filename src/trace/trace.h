// Low-overhead tracing and telemetry for the optimizer stack.
//
// A Tracer collects three kinds of events — RAII scoped spans, counter
// samples, and instants — into lock-free per-thread lanes: each lane is
// written only by its owning thread, so recording takes no lock and no
// atomic RMW on the hot path. Lanes are merged at serial boundaries
// (summary() / write_chrome_trace(), which the caller invokes only after
// every parallel region has joined), ordered deterministically by
// (lane, per-lane sequence number).
//
// House determinism contract: wall-clock timestamps and lane assignment
// necessarily vary between runs and thread counts, so the *deterministic
// view* of a trace is everything except time — span names with their
// occurrence counts, aggregate counter totals (incr()), and counter-sample
// value sequences. Summary::deterministic_digest() serializes exactly that
// view; on the deterministic paths (no time-limit truncation) it is
// bit-identical for any search/apply/core thread count, pinned by
// tests/trace_test.cpp at 1/2/8 threads — the same contract the staged
// apply pipeline follows for the e-graph itself.
//
// Cost model: with no tracer installed (the default), every instrumentation
// point is one relaxed atomic load and a predictable branch — cheap enough
// to leave in release hot paths (perfbench's trace.optimize_s against
// optimize_s measures the tracing-*enabled* overhead end to end; disabled
// overhead is unmeasurable). Event names must be string literals or other
// storage outliving the tracer (interned symbols qualify); dynamic detail
// goes in the int64 `arg`, never in the name.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "support/timer.h"

namespace tensat::trace {

/// One recorded event. Spans are stored complete (begin + duration, Chrome
/// "X" phase) rather than as begin/end pairs: half the events, and a span
/// can never be left dangling by an early return.
///
/// kStat is a counter sample whose *value* is inherently scheduling-
/// dependent (worker-pool queue depths): it renders in the Chrome trace
/// like a counter but is excluded from
/// Summary::deterministic_digest(), so pool telemetry can never break the
/// cross-thread-count digest pins. Use kCounter for values the determinism
/// contract covers, kStat for values it cannot.
struct Event {
  enum class Kind : uint8_t { kSpan, kCounter, kInstant, kStat };
  const char* name;
  Kind kind;
  double ts_us;    // steady-clock microseconds since tracer construction
  double dur_us;   // kSpan only
  int64_t arg;     // span/instant detail (e.g. core index), or counter value
  bool has_arg;    // spans/instants: whether `arg` is meaningful
};

/// Merged, aggregated view of a trace (the in-memory summary sink).
struct Summary {
  struct SpanAgg {
    std::string name;
    size_t count{0};
    double total_us{0.0};
  };
  struct CounterSeries {
    std::string name;
    std::vector<int64_t> values;  // samples in deterministic merge order
  };
  struct Total {
    std::string name;
    int64_t value{0};  // sum of incr() deltas across all lanes
  };
  std::vector<SpanAgg> spans;        // sorted by name
  std::vector<CounterSeries> counters;  // sorted by name
  std::vector<Total> totals;         // sorted by name
  std::vector<CounterSeries> stats;  // kStat samples, sorted by name —
                                     // nondeterministic telemetry, NOT part
                                     // of deterministic_digest()
  size_t events{0};                  // total events across all lanes

  /// The deterministic view serialized: span names + counts, counter value
  /// sequences, and incr totals — no timestamps, no durations, no lane ids.
  /// Bit-identical across thread counts on the deterministic paths.
  [[nodiscard]] std::string deterministic_digest() const;
};

class Tracer {
 public:
  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Makes this tracer the process-wide current tracer / removes it again.
  /// Instrumentation points pick it up through current(); install/uninstall
  /// must happen from serial code (typically main / a test body).
  void install();
  void uninstall();

  /// The installed tracer, or nullptr (tracing disabled). One relaxed
  /// atomic load — the entire disabled-path cost.
  [[nodiscard]] static Tracer* current() {
    return current_.load(std::memory_order_acquire);
  }

  /// Microseconds since construction on support/timer.h's steady clock (the
  /// repo's single timing authority).
  [[nodiscard]] double now_us() const { return timer_.seconds() * 1e6; }
  /// The same timeline position for an earlier reading `t` of that clock.
  [[nodiscard]] double us_at(Timer::Clock::time_point t) const {
    return Timer::seconds_between(timer_.start(), t) * 1e6;
  }

  /// Records a completed span starting at `start_us` on this tracer's
  /// timeline and lasting `dur_us`. Prefer ScopedSpan below.
  void record_span(const char* name, double start_us, double dur_us,
                   int64_t arg = 0, bool has_arg = false);
  /// Records a counter sample (a timeline point; Chrome "C" phase). For a
  /// deterministic digest, sample a given counter name from one serial
  /// context only — concurrent samples of the same name merge in lane
  /// order, which worker scheduling can vary.
  void counter(const char* name, int64_t value);
  /// Records an instant event (Chrome "i" phase).
  void instant(const char* name, int64_t arg = 0, bool has_arg = false);
  /// Records a scheduling-dependent telemetry sample (Event::Kind::kStat):
  /// shown as a Chrome "C" counter, excluded from the deterministic digest.
  void stat(const char* name, int64_t value);
  /// Adds `delta` to the aggregate total for `name`. Lock-free (per-lane
  /// accumulation, summed at merge time); safe and deterministic from any
  /// thread — use for worker-side tallies like MILP iteration counts.
  void incr(const char* name, int64_t delta);

  /// Merges all lanes into the in-memory summary. Serial boundaries only.
  [[nodiscard]] Summary summary() const;

  /// Writes the merged trace as Chrome trace-event JSON (the object form:
  /// {"traceEvents": [...]}), loadable by chrome://tracing and Perfetto.
  /// Each lane becomes one "tid" so per-thread span gaps are visible.
  /// Serial boundaries only.
  void write_chrome_trace(std::ostream& out) const;

 private:
  struct Lane;
  /// The calling thread's lane, registered on first use (the only locked
  /// operation; once per thread per tracer).
  Lane& lane();

  static std::atomic<Tracer*> current_;
  const uint64_t id_;  // process-unique; keys the thread-local lane cache
  Timer timer_;
  mutable std::mutex lanes_mu_;  // guards registration only, never recording
  std::vector<std::unique_ptr<Lane>> lanes_;
};

/// Tag for a ScopedSpan that reads the clock even with no tracer installed,
/// so that elapsed_seconds() can serve a time limit on its scope.
struct Timed {};

/// RAII scoped span: records [construction, destruction) under `name` on
/// the installed tracer, or does nothing (one atomic load, no clock read)
/// when tracing is disabled. `arg` carries dynamic detail (rule/pattern/core
/// index).
///
/// A span is the one clock for the scope it times. The `seconds` forms feed
/// a stats field: they always read the clock, and add the span's duration
/// to `seconds`, so the field and the recorded span are one reading. A
/// `Timed` span reads it too, for a time limit on its scope and nothing
/// else.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : ScopedSpan(name, nullptr, 0, false, false) {}
  ScopedSpan(const char* name, int64_t arg)
      : ScopedSpan(name, nullptr, arg, true, false) {}
  ScopedSpan(const char* name, int64_t arg, Timed)
      : ScopedSpan(name, nullptr, arg, true, true) {}
  ScopedSpan(const char* name, double& seconds)
      : ScopedSpan(name, &seconds, 0, false, true) {}
  ScopedSpan(const char* name, double& seconds, int64_t arg)
      : ScopedSpan(name, &seconds, arg, true, true) {}
  ~ScopedSpan() {
    if (!timed_) return;
    const double seconds = elapsed_seconds();
    if (tracer_ != nullptr)
      tracer_->record_span(name_, tracer_->us_at(start_), seconds * 1e6, arg_,
                           has_arg_);
    if (seconds_ != nullptr) *seconds_ += seconds;
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Seconds since the span opened. Only for the `seconds` and `Timed`
  /// forms, which read the clock with or without a tracer. A const read:
  /// safe from concurrent workers inside the scope.
  [[nodiscard]] double elapsed_seconds() const {
    return Timer::seconds_between(start_, Timer::Clock::now());
  }

 private:
  ScopedSpan(const char* name, double* seconds, int64_t arg, bool has_arg,
             bool timed)
      : tracer_(Tracer::current()),
        name_(name),
        seconds_(seconds),
        arg_(arg),
        has_arg_(has_arg),
        timed_(timed || tracer_ != nullptr) {
    if (timed_) start_ = Timer::Clock::now();
  }

  Tracer* tracer_;
  const char* name_;
  double* seconds_;
  int64_t arg_;
  bool has_arg_;
  bool timed_;  // whether start_ was read
  Timer::Clock::time_point start_{};
};

/// Counter sample on the installed tracer; no-op when disabled.
inline void counter(const char* name, int64_t value) {
  if (Tracer* t = Tracer::current()) t->counter(name, value);
}

/// Instant event on the installed tracer; no-op when disabled.
inline void instant(const char* name, int64_t arg = 0, bool has_arg = false) {
  if (Tracer* t = Tracer::current()) t->instant(name, arg, has_arg);
}

/// Aggregate-total increment on the installed tracer; no-op when disabled.
inline void incr(const char* name, int64_t delta) {
  if (Tracer* t = Tracer::current()) t->incr(name, delta);
}

/// Scheduling-dependent telemetry sample (digest-excluded); no-op when
/// disabled.
inline void stat(const char* name, int64_t value) {
  if (Tracer* t = Tracer::current()) t->stat(name, value);
}

}  // namespace tensat::trace
