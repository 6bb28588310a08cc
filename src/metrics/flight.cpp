#include "metrics/flight.h"

#include <cstdio>
#include <fstream>

#include "trace/trace.h"

namespace tensat::metrics {

const char* outcome_name(RequestRecord::Outcome o) {
  switch (o) {
    case RequestRecord::Outcome::kHit:
      return "hit";
    case RequestRecord::Outcome::kCold:
      return "cold";
    case RequestRecord::Outcome::kSession:
      return "session";
    case RequestRecord::Outcome::kError:
      return "error";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(Options options) : options_(std::move(options)) {
  ring_.reserve(options_.capacity);
}

void FlightRecorder::record(const RequestRecord& r) {
  bool dump = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (options_.capacity > 0) {
      if (ring_.size() < options_.capacity) {
        ring_.push_back(r);
      } else {
        ring_[start_] = r;
        start_ = (start_ + 1) % options_.capacity;
      }
    }
    ++total_;
    dump = options_.slow_threshold_s > 0.0 &&
           r.seconds > options_.slow_threshold_s && dumps_ < options_.max_dumps;
    if (dump) ++dumps_;  // reserve the slot before releasing the lock
  }
  if (dump) {
    std::string path = write_dump(r);
    std::lock_guard<std::mutex> lock(mu_);
    if (path.empty()) {
      --dumps_;  // the reservation didn't materialize; give it back
    } else {
      dump_paths_.push_back(std::move(path));
    }
  }
}

std::vector<RequestRecord> FlightRecorder::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<RequestRecord> out;
  out.reserve(ring_.size());
  for (size_t i = 0; i < ring_.size(); ++i)
    out.push_back(ring_[(start_ + i) % ring_.size()]);
  return out;
}

uint64_t FlightRecorder::total_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

uint64_t FlightRecorder::dumps_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dumps_;
}

std::vector<std::string> FlightRecorder::dump_paths() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dump_paths_;
}

namespace {
/// Appends a span of `seconds` (skipped when zero) at the running cursor.
/// Names must be string literals — the tracer stores the pointer.
void phase_span(trace::Tracer& t, const char* name, double seconds,
                double* cursor_us) {
  if (seconds <= 0.0) return;
  t.record_span(name, *cursor_us, seconds * 1e6);
  *cursor_us += seconds * 1e6;
}
}  // namespace

std::string FlightRecorder::write_dump(const RequestRecord& r) {
  // Re-render the record as a span timeline through a PRIVATE tracer (never
  // installed — live instrumentation points cannot land in it). Phases are
  // laid out back to back at their recorded durations; the residue between
  // the phase sum and the request wall time gets its own span so Perfetto
  // shows where untracked time went.
  trace::Tracer tracer;
  double cursor = 0.0;
  tracer.instant("request", static_cast<int64_t>(r.request_id), true);
  tracer.instant("fingerprint", static_cast<int64_t>(r.fingerprint), true);
  tracer.incr("iterations", r.iterations);
  tracer.incr("enodes_total", static_cast<int64_t>(r.enodes_total));
  tracer.incr("fallback_cores", static_cast<int64_t>(r.fallback_cores));
  if (r.stop_reason >= 0) tracer.incr("stop_reason", r.stop_reason);
  if (r.milp_gap >= 0.0)
    tracer.incr("milp_gap_ppm", static_cast<int64_t>(r.milp_gap * 1e6));

  phase_span(tracer, "explore/search", r.search_seconds, &cursor);
  phase_span(tracer, "explore/apply", r.apply_seconds, &cursor);
  phase_span(tracer, "explore/rebuild", r.rebuild_seconds, &cursor);
  phase_span(tracer, "explore/dmap", r.dmap_seconds, &cursor);
  phase_span(tracer, "explore/cycle_sweep", r.cycle_sweep_seconds, &cursor);
  phase_span(tracer, "extract/reach", r.reach_seconds, &cursor);
  phase_span(tracer, "extract/reduce", r.reduce_seconds, &cursor);
  phase_span(tracer, "extract/lp_build", r.lp_build_seconds, &cursor);
  phase_span(tracer, "extract/solve", r.solve_seconds, &cursor);
  phase_span(tracer, "extract/stitch", r.stitch_seconds, &cursor);
  double untracked = r.seconds * 1e6 - cursor;
  if (untracked > 0.0) phase_span(tracer, "other", untracked * 1e-6, &cursor);
  tracer.record_span(outcome_name(r.outcome), 0.0, r.seconds * 1e6,
                     static_cast<int64_t>(r.request_id), true);

  char name[64];
  std::snprintf(name, sizeof(name), "slow_request_%llu.json",
                static_cast<unsigned long long>(r.request_id));
  std::string path =
      options_.dump_dir.empty() ? std::string(name) : options_.dump_dir;
  if (!options_.dump_dir.empty()) {
    if (path.back() != '/') path.push_back('/');
    path += name;
  }
  std::ofstream out(path);
  if (!out) return {};
  tracer.write_chrome_trace(out);
  out.flush();
  return out ? path : std::string{};
}

}  // namespace tensat::metrics
