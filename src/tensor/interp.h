// Reference interpreter: evaluates a concrete Graph bottom-up with the
// loop-nest operators from tensor.h. Split boundaries come from the graph's
// shape analysis (ValueInfo), so interpreter semantics and shape checking
// agree by construction.
//
// Input and weight tensors are synthesized deterministically from their
// identifier (name + shape) and a global seed, so two graphs that reference
// the same identifiers see identical data — exactly what rewrite-soundness
// tests need. Callers may also pre-feed specific tensors by name.
#pragma once

#include <string>
#include <unordered_map>
#include <variant>

#include "lang/graph.h"
#include "tensor/tensor.h"

namespace tensat {

struct TensorPair {
  Tensor first;
  Tensor second;
};

/// Runtime value of a node: parameter leaves evaluate to themselves.
using Value = std::variant<Tensor, TensorPair, int64_t, Symbol>;

class Interpreter {
 public:
  explicit Interpreter(uint64_t seed = 1) : seed_(seed) {}

  /// Overrides the synthesized data for the identifier `name`.
  void feed(const std::string& name, Tensor t) { feeds_[name] = std::move(t); }

  /// Evaluates every node reachable from the roots; returns values by id.
  /// `merge` is rejected (its value depends on the consuming convolution's
  /// group count; see DESIGN.md) — graphs under numeric test must avoid it.
  std::unordered_map<Id, Value> run(const Graph& g);

  /// Evaluates and returns the tensors at the graph's roots, in root order.
  /// Frees each intermediate value after its last reader has run, so a run
  /// holds the graph's live values, not all of them.
  std::vector<Tensor> run_roots(const Graph& g);

 private:
  Tensor fetch(const std::string& id_text);
  /// The value of node `id`, reading its children's values from `values`.
  Value eval(const Graph& g, Id id, const std::unordered_map<Id, Value>& values);
  uint64_t seed_;
  std::unordered_map<std::string, Tensor> feeds_;
};

}  // namespace tensat
