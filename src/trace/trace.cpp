#include "trace/trace.h"

#include <algorithm>
#include <map>
#include <utility>

#include "support/check.h"

namespace tensat::trace {
namespace {

/// Process-unique tracer ids. The thread-local lane cache is keyed by id,
/// not by Tracer*, so a stale cache entry can never alias a new tracer that
/// happens to reuse a destroyed one's address.
std::atomic<uint64_t> next_tracer_id{1};

struct LaneCache {
  uint64_t tracer_id{0};
  void* lane{nullptr};
};
thread_local LaneCache tls_lane;

void write_json_string(std::ostream& out, const char* s) {
  out << '"';
  for (const char* p = s; *p != '\0'; ++p) {
    const char c = *p;
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

}  // namespace

std::atomic<Tracer*> Tracer::current_{nullptr};

/// One thread's event buffer. Only the owning thread writes; the tracer
/// reads at serial boundaries (after every parallel region joined, so the
/// pool's join provides the happens-before edge).
struct Tracer::Lane {
  std::vector<Event> events;
  /// incr() totals: (name pointer, sum). Linear probe over a tiny vector —
  /// the name set is a handful of literals, and pointer identity is the
  /// key (same literal => same pointer within a TU; across TUs a duplicate
  /// entry merges by name at summary time anyway).
  std::vector<std::pair<const char*, int64_t>> totals;
};

Tracer::Tracer() : id_(next_tracer_id.fetch_add(1, std::memory_order_relaxed)) {}

Tracer::~Tracer() {
  TENSAT_CHECK(current_.load(std::memory_order_acquire) != this,
               "tracer destroyed while installed");
}

void Tracer::install() {
  Tracer* expected = nullptr;
  TENSAT_CHECK(
      current_.compare_exchange_strong(expected, this, std::memory_order_acq_rel),
      "a tracer is already installed");
}

void Tracer::uninstall() {
  Tracer* expected = this;
  TENSAT_CHECK(
      current_.compare_exchange_strong(expected, nullptr, std::memory_order_acq_rel),
      "uninstall: this tracer is not the installed one");
}

Tracer::Lane& Tracer::lane() {
  if (tls_lane.tracer_id == id_) return *static_cast<Lane*>(tls_lane.lane);
  const std::lock_guard<std::mutex> lock(lanes_mu_);
  lanes_.push_back(std::make_unique<Lane>());
  Lane* l = lanes_.back().get();
  tls_lane = LaneCache{id_, l};
  return *l;
}

void Tracer::record_span(const char* name, double start_us, double dur_us,
                         int64_t arg, bool has_arg) {
  lane().events.push_back(
      Event{name, Event::Kind::kSpan, start_us, dur_us, arg, has_arg});
}

void Tracer::counter(const char* name, int64_t value) {
  lane().events.push_back(
      Event{name, Event::Kind::kCounter, now_us(), 0.0, value, true});
}

void Tracer::instant(const char* name, int64_t arg, bool has_arg) {
  lane().events.push_back(
      Event{name, Event::Kind::kInstant, now_us(), 0.0, arg, has_arg});
}

void Tracer::stat(const char* name, int64_t value) {
  lane().events.push_back(
      Event{name, Event::Kind::kStat, now_us(), 0.0, value, true});
}

void Tracer::incr(const char* name, int64_t delta) {
  Lane& l = lane();
  for (auto& [n, sum] : l.totals) {
    if (n == name) {
      sum += delta;
      return;
    }
  }
  l.totals.emplace_back(name, delta);
}

Summary Tracer::summary() const {
  Summary s;
  std::map<std::string, Summary::SpanAgg> spans;
  std::map<std::string, Summary::CounterSeries> counters;
  std::map<std::string, Summary::CounterSeries> stats;
  std::map<std::string, int64_t> totals;
  const std::lock_guard<std::mutex> lock(lanes_mu_);
  for (const auto& lane : lanes_) {
    s.events += lane->events.size();
    for (const Event& e : lane->events) {
      switch (e.kind) {
        case Event::Kind::kSpan: {
          auto& agg = spans[e.name];
          agg.name = e.name;
          ++agg.count;
          agg.total_us += e.dur_us;
          break;
        }
        case Event::Kind::kCounter: {
          auto& series = counters[e.name];
          series.name = e.name;
          series.values.push_back(e.arg);
          break;
        }
        case Event::Kind::kInstant: {
          auto& agg = spans[e.name];
          agg.name = e.name;
          ++agg.count;
          break;
        }
        case Event::Kind::kStat: {
          auto& series = stats[e.name];
          series.name = e.name;
          series.values.push_back(e.arg);
          break;
        }
      }
    }
    for (const auto& [name, sum] : lane->totals) totals[name] += sum;
  }
  for (auto& [name, agg] : spans) s.spans.push_back(std::move(agg));
  for (auto& [name, series] : counters) s.counters.push_back(std::move(series));
  for (auto& [name, series] : stats) s.stats.push_back(std::move(series));
  for (const auto& [name, value] : totals)
    s.totals.push_back(Summary::Total{name, value});
  return s;
}

std::string Summary::deterministic_digest() const {
  std::string out;
  for (const SpanAgg& sp : spans) {
    out += "span ";
    out += sp.name;
    out += " x";
    out += std::to_string(sp.count);
    out += '\n';
  }
  for (const CounterSeries& c : counters) {
    out += "counter ";
    out += c.name;
    out += ':';
    for (int64_t v : c.values) {
      out += ' ';
      out += std::to_string(v);
    }
    out += '\n';
  }
  for (const Total& t : totals) {
    out += "total ";
    out += t.name;
    out += '=';
    out += std::to_string(t.value);
    out += '\n';
  }
  return out;
}

void Tracer::write_chrome_trace(std::ostream& out) const {
  const std::lock_guard<std::mutex> lock(lanes_mu_);
  out << "{\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) out << ",\n";
    first = false;
  };
  for (size_t t = 0; t < lanes_.size(); ++t) {
    sep();
    out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" << t
        << ",\"args\":{\"name\":\"lane " << t << (t == 0 ? " (serial)" : "")
        << "\"}}";
  }
  char num[64];
  for (size_t t = 0; t < lanes_.size(); ++t) {
    for (const Event& e : lanes_[t]->events) {
      sep();
      out << "{\"name\":";
      write_json_string(out, e.name);
      switch (e.kind) {
        case Event::Kind::kSpan:
          std::snprintf(num, sizeof(num), "%.3f,\"dur\":%.3f", e.ts_us, e.dur_us);
          out << ",\"ph\":\"X\",\"ts\":" << num;
          break;
        case Event::Kind::kCounter:
        case Event::Kind::kStat:
          std::snprintf(num, sizeof(num), "%.3f", e.ts_us);
          out << ",\"ph\":\"C\",\"ts\":" << num;
          break;
        case Event::Kind::kInstant:
          std::snprintf(num, sizeof(num), "%.3f", e.ts_us);
          out << ",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << num;
          break;
      }
      out << ",\"pid\":0,\"tid\":" << t;
      if (e.kind == Event::Kind::kCounter || e.kind == Event::Kind::kStat) {
        out << ",\"args\":{\"value\":" << e.arg << '}';
      } else if (e.has_arg) {
        out << ",\"args\":{\"arg\":" << e.arg << '}';
      }
      out << '}';
    }
    // Aggregate totals surface as one final counter sample per lane so they
    // are visible in the viewer without a separate sink.
    for (const auto& [name, sum] : lanes_[t]->totals) {
      sep();
      out << "{\"name\":";
      write_json_string(out, name);
      out << ",\"ph\":\"C\",\"ts\":" << static_cast<int64_t>(now_us())
          << ",\"pid\":0,\"tid\":" << t << ",\"args\":{\"value\":" << sum << "}}";
    }
  }
  out << "]}\n";
}

}  // namespace tensat::trace
