#include "support/symbol.h"

#include <deque>
#include <mutex>
#include <unordered_map>

namespace tensat {
namespace {

// Process-wide interner. A deque keeps string addresses stable so str() can
// return references without holding the lock.
struct Interner {
  std::mutex mu;
  std::deque<std::string> strings;
  std::unordered_map<std::string_view, uint32_t> ids;

  Interner() { intern(""); }  // id 0: the default-constructed Symbol

  uint32_t intern(std::string_view text) {
    std::lock_guard<std::mutex> lock(mu);
    auto it = ids.find(text);
    if (it != ids.end()) return it->second;
    strings.emplace_back(text);
    const uint32_t id = static_cast<uint32_t>(strings.size() - 1);
    ids.emplace(strings.back(), id);
    return id;
  }

  const std::string& lookup(uint32_t id) {
    std::lock_guard<std::mutex> lock(mu);
    return strings[id];
  }
};

Interner& interner() {
  static Interner* instance = new Interner();  // intentionally leaked
  return *instance;
}

}  // namespace

Symbol::Symbol(std::string_view text) : id_(interner().intern(text)) {}

const std::string& Symbol::str() const { return interner().lookup(id_); }

}  // namespace tensat
