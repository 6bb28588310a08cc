// Shared pieces of the end-to-end benchmark: benchmark-side spans around the
// calls into the library, the run report, order statistics and settings
// that more than one workload uses.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "cost/cost.h"
#include "rewrite/rules.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Spans recorded by the benchmark around each call into a layer's public
/// functions: a name and a duration each. The library itself is never
/// instrumented. A disabled log (the untraced run) makes Span a no-op that
/// reads no clock.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] size_t size() const;
  /// Summed duration of every span called `name`.
  [[nodiscard]] double total(const std::string& name) const;
  /// Records one span. Thread-safe.
  void add(const char* name, double seconds);

 private:
  struct Record {
    const char* name;
    double seconds;
  };

  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Record> records_;  // guarded by mu_
};

/// RAII span; records into `log` only when the log is enabled.
class Span {
 public:
  Span(SpanLog& log, const char* name)
      : log_(log), name_(name), start_(log.enabled() ? Clock::now() : Clock::time_point()) {}
  ~Span() {
    if (log_.enabled()) log_.add(name_, seconds_between(start_, Clock::now()));
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog& log_;
  const char* name_;
  Clock::time_point start_;
};

/// Runs `f` inside a span called `name`.
template <class F>
auto traced(SpanLog& log, const char* name, F&& f) -> decltype(f()) {
  Span span(log, name);
  return f();
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// Peak resident set size of this process in MiB.
double peak_rss_mb();

/// One named metric of the run, printed with its unit.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// What one workload run produced: the operation counts and both metric
/// sets. The untraced run prints `end_to_end`, the traced run `per_layer`.
struct Report {
  long attempted{0};
  long failed{0};
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
};

/// Command-line settings every workload receives.
struct RunConfig {
  uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  /// Tiny inputs and a short run: the self-check that every metric is
  /// emitted, not a measurement.
  bool tiny{false};
};

const tensat::T4CostModel& cost_model();

/// The benchmark's setup_s: building the rule set plus the median of
/// `setups` timed repetitions of `body`, the rest of the set-up. The library
/// builds the rules on the first default_rules() call of the process, so
/// that call is timed once, here, and added to every set-up.
template <class F>
double setup_seconds(int setups, F&& body) {
  const Clock::time_point t_rules = Clock::now();
  (void)tensat::default_rules();
  const double rules = seconds_between(t_rules, Clock::now());
  std::vector<double> times;
  for (int i = 0; i < setups; ++i) {
    const Clock::time_point t0 = Clock::now();
    body(i);
    times.push_back(seconds_between(t0, Clock::now()));
  }
  const double rest = median(times);
  std::printf("setup  rules %.6f s + median of %d set-ups %.6f s\n", rules, setups, rest);
  return rules + rest;
}

Report run_batch(const std::string& workload, const RunConfig& config);
Report run_service_mix(const RunConfig& config);

}  // namespace perfbench
