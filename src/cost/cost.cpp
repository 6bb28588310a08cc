#include "cost/cost.h"

#include <algorithm>
#include <cmath>

#include "support/check.h"
#include "support/hash.h"
#include "support/rng.h"

namespace tensat {
namespace {

constexpr double kBytesPerElem = 4.0;  // fp32

double tensor_bytes(const ValueInfo& v) {
  return v.kind == VKind::kTensor || v.kind == VKind::kTuple
             ? kBytesPerElem * static_cast<double>(v.volume())
             : 0.0;
}

}  // namespace

double T4CostModel::op_cost(const TNode& node, span<const ValueInfo* const> inputs,
                            const ValueInfo& out) const {
  double flops = 0.0;
  double bytes = 0.0;
  switch (node.op) {
    case Op::kNum:
    case Op::kStr:
    case Op::kVar:
    case Op::kInput:
    case Op::kWeight:
    case Op::kNoop:
      return 0.0;
    // Views: split produces two aliased halves, split0/1 select one, reshape
    // reinterprets the buffer. No kernel is launched.
    case Op::kSplit:
    case Op::kSplit0:
    case Op::kSplit1:
    case Op::kReshape:
      return 0.0;

    case Op::kMatmul: {
      const ValueInfo& a = *inputs[1];
      const int ra = a.rank();
      const double m = out.shape[out.rank() - 2];
      const double n = out.shape[out.rank() - 1];
      const double k = a.shape[ra - 1];
      const double batch = out.rank() == 3 ? out.shape[0] : 1.0;
      flops = 2.0 * batch * m * n * k;
      bytes = tensor_bytes(a) + tensor_bytes(*inputs[2]) + tensor_bytes(out);
      break;
    }
    case Op::kConv: {
      const ValueInfo& w = *inputs[5];
      const double cin_per_group = w.shape[1];
      const double kh = w.shape[2], kw = w.shape[3];
      flops = 2.0 * static_cast<double>(out.volume()) * cin_per_group * kh * kw;
      bytes = tensor_bytes(*inputs[4]) + tensor_bytes(w) + tensor_bytes(out);
      break;
    }
    case Op::kEwadd:
    case Op::kEwmul:
      flops = static_cast<double>(out.volume());
      bytes = 3.0 * tensor_bytes(out);
      break;
    case Op::kRelu:
    case Op::kTanh:
    case Op::kSigmoid:
      flops = static_cast<double>(out.volume());
      bytes = 2.0 * tensor_bytes(out);
      break;
    case Op::kPoolmax:
    case Op::kPoolavg: {
      const double kh = static_cast<double>(inputs[1]->num);
      const double kw = static_cast<double>(inputs[2]->num);
      flops = static_cast<double>(out.volume()) * kh * kw;
      bytes = tensor_bytes(*inputs[0]) + tensor_bytes(out);
      break;
    }
    case Op::kTranspose:
      bytes = p_.transpose_penalty * 2.0 * tensor_bytes(out);
      break;
    case Op::kEnlarge:
    case Op::kMerge:
      bytes = 2.0 * tensor_bytes(out);
      break;
    case Op::kConcat2:
    case Op::kConcat3:
    case Op::kConcat4:
    case Op::kConcat5:
      bytes = 2.0 * tensor_bytes(out);
      break;
    case Op::kOpCount:
      TENSAT_FAIL("bad op");
  }

  const double util = std::max(p_.min_util, 1.0 - std::exp(-flops / p_.util_scale_flops));
  const double compute_s = flops > 0.0 ? flops / (p_.peak_flops * util) : 0.0;
  const double memory_s = bytes / p_.mem_bandwidth;
  return p_.launch_overhead_us + 1e6 * std::max(compute_s, memory_s);
}

double MeasuredRuntimeModel::op_cost(const TNode& node,
                                     span<const ValueInfo* const> inputs,
                                     const ValueInfo& out) const {
  double cost = base_->op_cost(node, inputs, out);
  if (cost == 0.0) return 0.0;
  // Data-movement ops are systematically under-modelled by the analytic
  // model (kernel fusion opportunities lost, cache effects).
  switch (node.op) {
    case Op::kConcat2:
    case Op::kConcat3:
    case Op::kConcat4:
    case Op::kConcat5:
    case Op::kTranspose:
      cost *= 1.0 + movement_penalty_;
      break;
    case Op::kSplit:
      // "Free" views still cost a little in a real runtime (extra kernels
      // can no longer fuse across the split boundary).
      cost += movement_penalty_ * kBytesPerElem *
              static_cast<double>(out.volume()) / 2.4e11 * 1e6;
      break;
    default:
      break;
  }
  // Deterministic per-node jitter (measurement noise).
  size_t h = seed_;
  hash_combine_value(h, static_cast<int>(node.op));
  hash_combine_value(h, out.volume());
  Rng rng(h);
  return cost * (1.0 + jitter_ * rng.normal());
}

double node_cost(const CostModel& model, const TNode& node,
                 span<const ValueInfo* const> inputs, const ValueInfo& out) {
  if (out.weight_only) return 0.0;  // precomputed at inference time
  return model.op_cost(node, inputs, out);
}

double graph_cost(const Graph& g, const CostModel& model) {
  TENSAT_CHECK(g.kind() == GraphKind::kConcrete, "cannot cost a pattern graph");
  double total = 0.0;
  const ValueInfo* inputs[kMaxArity];
  for (Id id : g.topo_order()) {
    const TNode& n = g.node(id);
    for (size_t i = 0; i < n.children.size(); ++i) inputs[i] = &g.info(n.children[i]);
    total += node_cost(model, n, span<const ValueInfo* const>(inputs, n.children.size()),
                       g.info(id));
  }
  return total;
}

double enode_cost(const EGraph& eg, Id cls, const TNode& node, const CostModel& model) {
  const ValueInfo* inputs[kMaxArity];
  for (size_t i = 0; i < node.children.size(); ++i) inputs[i] = &eg.data(node.children[i]);
  return node_cost(model, node, span<const ValueInfo* const>(inputs, node.children.size()),
                   eg.data(cls));
}

}  // namespace tensat
