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
// apply pipeline and incremental cycle analysis follow for the e-graph
// itself.
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
#include <optional>
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
/// dependent (work-stealing pool queue depths, steal counts): it renders in
/// the Chrome trace like a counter but is excluded from
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

  /// Records a completed span. Prefer ScopedSpan below.
  void record_span(const char* name, double start_us, double end_us,
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

/// RAII scoped span: records [construction, destruction) under `name` on
/// the installed tracer, or does nothing (one atomic load) when tracing is
/// disabled. `arg` carries dynamic detail (rule/pattern/core index).
///
/// The `seconds` form is the one clock for a stats-struct phase field
/// (ExploreStats::dmap_seconds and its siblings): it always times the
/// scope and adds the duration to `seconds`. With a tracer installed that
/// duration is the recorded span's own, so the field and the span total
/// are one reading; without one, a Timer supplies it.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : tracer_(Tracer::current()), name_(name) {
    if (tracer_ != nullptr) start_us_ = tracer_->now_us();
  }
  ScopedSpan(const char* name, int64_t arg)
      : tracer_(Tracer::current()), name_(name), arg_(arg), has_arg_(true) {
    if (tracer_ != nullptr) start_us_ = tracer_->now_us();
  }
  ScopedSpan(const char* name, double& seconds)
      : tracer_(Tracer::current()), name_(name), seconds_(&seconds) {
    if (tracer_ != nullptr)
      start_us_ = tracer_->now_us();
    else
      timer_.emplace();
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      const double end_us = tracer_->now_us();
      tracer_->record_span(name_, start_us_, end_us, arg_, has_arg_);
      if (seconds_ != nullptr) *seconds_ += (end_us - start_us_) * 1e-6;
    } else if (seconds_ != nullptr) {
      *seconds_ += timer_->seconds();
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  const char* name_;
  double* seconds_{nullptr};
  std::optional<Timer> timer_;  // the clock for `seconds_` without a tracer
  double start_us_{0.0};
  int64_t arg_{0};
  bool has_arg_{false};
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
