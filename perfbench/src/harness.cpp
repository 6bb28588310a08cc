#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

namespace perfbench {

void SpanLog::add(const char* name, double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back({name, seconds});
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

double SpanLog::total(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  double sum = 0.0;
  for (const Record& r : records_)
    if (name == r.name) sum += r.seconds;
  return sum;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

const tensat::T4CostModel& cost_model() {
  static const tensat::T4CostModel model;
  return model;
}

}  // namespace perfbench
