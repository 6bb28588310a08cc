// Bounded LRU result cache for the optimization service.
//
// Keys are full canonical-form strings (service/fingerprint.h) — the 64-bit
// fingerprint is display-only, so a hash collision can never serve the wrong
// graph's result. Values are the exact bytes a previous cold optimization
// produced; a hit returns those stored bytes untouched, which is what makes
// cache hits bit-identical to the run that populated them (the service-bench
// gate recomputes a hit cold and compares byte-for-byte).
//
// Thread safety: every method takes the internal mutex; lookups mutate LRU
// order, so there is no shared/read-only fast path. The cache stores value
// snapshots by copy — entries stay valid after eviction of the map node.
#pragma once

#include <cstddef>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

namespace tensat {
namespace service {

/// Everything a cache hit needs to answer a request without recomputing.
struct CachedResult {
  std::string optimized_text;  // serialized optimized graph (exact bytes)
  double original_cost{0.0};
  double optimized_cost{0.0};
};

/// Bounded LRU map: canonical form -> CachedResult.
class ResultCache {
 public:
  explicit ResultCache(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

  /// Returns a copy of the entry and promotes it to most-recently-used.
  std::optional<CachedResult> lookup(const std::string& canonical) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = map_.find(canonical);
    if (it == map_.end()) return std::nullopt;
    order_.splice(order_.begin(), order_, it->second.order_it);
    return it->second.value;
  }

  /// Inserts (or refreshes) an entry, evicting least-recently-used past
  /// capacity. Refreshing overwrites the stored value and promotes the key.
  void insert(const std::string& canonical, CachedResult value) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = map_.find(canonical);
    if (it != map_.end()) {
      it->second.value = std::move(value);
      order_.splice(order_.begin(), order_, it->second.order_it);
      return;
    }
    order_.push_front(canonical);
    map_.emplace(canonical, Entry{std::move(value), order_.begin()});
    while (map_.size() > capacity_) {
      map_.erase(order_.back());
      order_.pop_back();
    }
  }

  [[nodiscard]] size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return map_.size();
  }
  [[nodiscard]] size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    CachedResult value;
    std::list<std::string>::iterator order_it;
  };

  const size_t capacity_;
  mutable std::mutex mutex_;
  std::unordered_map<std::string, Entry> map_;
  std::list<std::string> order_;  // front = most recently used
};

}  // namespace service
}  // namespace tensat
