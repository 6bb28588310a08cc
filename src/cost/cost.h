// Cost models. The paper measures each operator's runtime on a T4 GPU via
// cuDNN and sums node costs (§5, "Cost model"); we substitute an analytic
// T4-class model (see DESIGN.md §4): per-kernel launch overhead plus the
// max of a compute term (flops over peak, derated by a utilization curve
// that favours large kernels) and a memory term (bytes over bandwidth).
// The launch overhead and utilization curve are what make the paper's
// operator-merging rewrites profitable, for the same reason they are
// profitable on the real GPU.
//
// node_cost() layers the graph-level convention on top: operators whose
// output is derivable from weights alone cost zero (they are precomputed at
// inference time, cf. paper Fig. 10), and parameter/view nodes are free.
#pragma once

#include <memory>
#include "support/span.h"

#include "egraph/egraph.h"
#include "lang/graph.h"
#include "lang/shapes.h"

namespace tensat {

class CostModel {
 public:
  virtual ~CostModel() = default;
  /// Estimated runtime, in microseconds, of one execution of `node` given
  /// its input value infos (one pointer per child, as infer() takes them)
  /// and its output value info. Pure operator cost: the weight-only
  /// zeroing convention is applied by node_cost(), not here. Must be >= 0:
  /// greedy extraction settles classes in nondecreasing cost order and
  /// throws on a negative cost.
  [[nodiscard]] virtual double op_cost(const TNode& node,
                                       span<const ValueInfo* const> inputs,
                                       const ValueInfo& out) const = 0;
};

/// Analytic NVIDIA-T4-class model.
class T4CostModel : public CostModel {
 public:
  struct Params {
    double launch_overhead_us = 5.0;    // per-kernel launch + scheduling
    double peak_flops = 8.1e12;         // fp32
    double mem_bandwidth = 2.4e11;      // bytes/s, effective
    double util_scale_flops = 2.0e8;    // utilization curve knee
    double min_util = 0.03;
    double transpose_penalty = 2.0;     // uncoalesced access factor
  };

  T4CostModel() = default;
  explicit T4CostModel(const Params& params) : p_(params) {}

  [[nodiscard]] double op_cost(const TNode& node, span<const ValueInfo* const> inputs,
                               const ValueInfo& out) const override;

 private:
  Params p_{};
};

/// "True runtime" simulator: wraps a base model and injects a controlled
/// discrepancy (extra cost on data-movement ops plus deterministic per-node
/// jitter). Used to reproduce the paper's §6.4 observation that a cost-model
/// win can be a runtime loss (SqueezeNet at high k_multi).
class MeasuredRuntimeModel : public CostModel {
 public:
  MeasuredRuntimeModel(std::shared_ptr<const CostModel> base, double movement_penalty,
                       double jitter, uint64_t seed)
      : base_(std::move(base)),
        movement_penalty_(movement_penalty),
        jitter_(jitter),
        seed_(seed) {}

  [[nodiscard]] double op_cost(const TNode& node, span<const ValueInfo* const> inputs,
                               const ValueInfo& out) const override;

 private:
  std::shared_ptr<const CostModel> base_;
  double movement_penalty_;
  double jitter_;
  uint64_t seed_;
};

/// The cost the optimizer charges for a node: 0 for parameter leaves, views,
/// noop, and any weight-only (precomputable) output; otherwise the model's
/// operator cost.
double node_cost(const CostModel& model, const TNode& node,
                 span<const ValueInfo* const> inputs, const ValueInfo& out);

/// Sum of node_cost over all nodes reachable from `g`'s roots (the paper's
/// graph cost; hash-consing means shared subgraphs are counted once).
double graph_cost(const Graph& g, const CostModel& model);

/// node_cost for an e-node: inputs come from its children's e-class data and
/// the output from its own class data.
double enode_cost(const EGraph& eg, Id cls, const TNode& node, const CostModel& model);

}  // namespace tensat
