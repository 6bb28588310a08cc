// Interned strings. A Symbol is a cheap, trivially copyable handle to a string
// stored in a process-wide table; equality and hashing are integer operations.
// Used for operator string payloads (tensor identifiers, permutations, shapes)
// and pattern variable names.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace tensat {

class Symbol {
 public:
  /// The empty symbol. "" is interned as id 0 when the table is built, so
  /// this (like empty()) never touches the table or its lock.
  constexpr Symbol() = default;

  /// Interns `text` (idempotent) and returns its handle.
  explicit Symbol(std::string_view text);

  /// The interned text. Valid for the lifetime of the process.
  [[nodiscard]] const std::string& str() const;

  [[nodiscard]] uint32_t id() const { return id_; }
  [[nodiscard]] bool empty() const { return id_ == 0; }

  friend bool operator==(Symbol a, Symbol b) { return a.id_ == b.id_; }
  friend bool operator!=(Symbol a, Symbol b) { return a.id_ != b.id_; }
  friend bool operator<(Symbol a, Symbol b) { return a.id_ < b.id_; }

 private:
  uint32_t id_ = 0;
};

}  // namespace tensat

template <>
struct std::hash<tensat::Symbol> {
  size_t operator()(tensat::Symbol s) const noexcept {
    return std::hash<uint32_t>{}(s.id());
  }
};
