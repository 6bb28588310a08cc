// Wall-clock timing helpers used for optimizer phase statistics and for the
// benchmark harnesses that report optimizer time.
//
// This is the single timing authority for the repo: every duration — phase
// stats, benchmark reps, time limits, and the tracer's spans
// (src/trace/trace.h) — is a difference of two readings of this steady
// clock. Do not add raw std::chrono call sites elsewhere; system_clock is
// subject to NTP steps, and mixing clocks breaks span nesting in the trace
// timeline.
#pragma once

#include <chrono>

namespace tensat {

class Timer {
 public:
  using Clock = std::chrono::steady_clock;

  Timer() : start_(Clock::now()) {}

  /// Seconds elapsed since construction or the last reset().
  [[nodiscard]] double seconds() const {
    return seconds_between(start_, Clock::now());
  }

  /// The reading taken at construction or the last reset().
  [[nodiscard]] Clock::time_point start() const { return start_; }

  void reset() { start_ = Clock::now(); }

  /// Seconds from reading `from` to reading `to`.
  [[nodiscard]] static double seconds_between(Clock::time_point from,
                                              Clock::time_point to) {
    return std::chrono::duration<double>(to - from).count();
  }

 private:
  Clock::time_point start_;
};

}  // namespace tensat
