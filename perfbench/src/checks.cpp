#include "checks.h"

#include <cmath>
#include <exception>
#include <future>

#include "cost/cost.h"
#include "harness.h"
#include "serialize/serialize.h"
#include "support/hash.h"
#include "tensor/interp.h"

namespace perfbench {

using namespace tensat;

namespace {

/// The graph's real outputs: the trailing noop chain carries no data.
std::vector<Id> real_roots(const Graph& g) {
  std::vector<Id> out;
  std::vector<Id> stack(g.roots().rbegin(), g.roots().rend());  // pops in root order
  while (!stack.empty()) {
    const Id id = stack.back();
    stack.pop_back();
    if (g.node(id).op == Op::kNoop) {
      stack.push_back(g.node(id).children[1]);
      stack.push_back(g.node(id).children[0]);
    } else {
      out.push_back(id);
    }
  }
  return out;
}

bool acyclic(const Graph& g) {
  std::vector<bool> seen(g.size(), false);
  for (Id id : g.topo_order()) {
    for (Id child : g.node(id).children)
      if (!seen[child]) return false;
    seen[id] = true;
  }
  return true;
}

/// The largest elementwise |a - b|, relative to the largest |a|: outputs of
/// the paper-scale models span many orders of magnitude, so the tolerance
/// follows each tensor's own scale. +inf on a shape mismatch; NaN sticks.
double relative_error(const Tensor& a, const Tensor& b) {
  if (a.dims() != b.dims()) return HUGE_VAL;
  const auto da = a.data();
  const auto db = b.data();
  double scale = 0.0;
  double worst = 0.0;
  for (size_t i = 0; i < da.size(); ++i) {
    scale = std::max(scale, static_cast<double>(std::fabs(da[i])));
    const double err = std::fabs(static_cast<double>(da[i]) - db[i]);
    if (!(err <= worst)) worst = err;
  }
  return scale > 0.0 ? worst / scale : worst;
}

/// Interprets `g`'s real outputs on data seeded by `seed`. Weights are
/// scaled to 0.4/sqrt(fan-in): BERT's unnormalized attention is cubic in
/// its input, so with unit-scale weights its activations overflow to inf
/// within four layers, and with much smaller ones attention falls below the
/// tolerance. At this scale both the attention and the feed-forward paths
/// contribute visibly and every model stays finite.
std::vector<Tensor> interpret(Graph g, uint64_t seed) {
  g.set_roots(real_roots(g));
  Interpreter interp(seed);
  for (Id id : g.topo_order()) {
    if (g.node(id).op != Op::kWeight) continue;
    auto [name, dims] = parse_tensor_id(g.node(g.node(id).children[0]).str.str());
    size_t h = seed;
    hash_combine_value(h, name);
    Tensor t = random_tensor(dims, h);
    const int32_t fan_in =
        dims.size() == 4 ? dims[1] * dims[2] * dims[3] : dims[dims.size() >= 2 ? dims.size() - 2 : 0];
    const float scale = 0.4f / std::sqrt(static_cast<float>(std::max(fan_in, 1)));
    for (float& x : t.data()) x *= scale;
    interp.feed(name, std::move(t));
  }
  return interp.run_roots(g);
}

std::string check_function(const Graph& input, const Graph& optimized, uint64_t seed) {
  // The two interpretations are independent: run them side by side.
  auto reference = std::async(std::launch::async, [&] { return interpret(input, seed); });
  const std::vector<Tensor> vb = interpret(optimized, seed);
  const std::vector<Tensor> va = reference.get();
  if (va.size() != vb.size()) return "output count differs from the input's";
  for (size_t i = 0; i < va.size(); ++i) {
    if (va[i].dims() != vb[i].dims())
      return "output " + std::to_string(i) + " has shape " + format_dims(vb[i].dims()) +
             ", the input's " + format_dims(va[i].dims());
    const double err = relative_error(va[i], vb[i]);
    if (!(err <= 1e-3))
      return "output " + std::to_string(i) + " differs from the input's (relative error " +
             std::to_string(err) + ")";
  }
  return "";
}

}  // namespace

std::string check_output(const Graph& input, const Graph& optimized,
                         double reported_cost, uint64_t seed, bool* interpreted) {
  if (interpreted != nullptr) *interpreted = false;
  try {
    const double input_cost = graph_cost(input, cost_model());
    const double cost = graph_cost(optimized, cost_model());
    if (std::fabs(cost - reported_cost) > 1e-6 * (1.0 + std::fabs(cost)))
      return "reported cost differs from the graph's cost";
    if (cost > input_cost + 1e-6 * (1.0 + input_cost))
      return "optimized cost above the input's";

    const std::string text = save_graph_to_string(optimized);
    const Graph loaded = load_graph_from_string(text);
    if (save_graph_to_string(loaded) != text) return "save/load round trip changed the graph";
    if (!acyclic(loaded)) return "optimized graph is cyclic";

    if (optimized.op_histogram().count(Op::kMerge) != 0) return "";
    if (interpreted != nullptr) *interpreted = true;
    return check_function(input, optimized, seed);
  } catch (const std::exception& e) {
    return std::string("check threw: ") + e.what();
  }
}

}  // namespace perfbench
