#include "lang/graph.h"

#include <algorithm>
#include <charconv>

#include "support/check.h"

namespace tensat {

void detail::fail_too_many_children() {
  TENSAT_FAIL("a node takes at most " << kMaxArity << " children");
}

std::optional<Id> Graph::try_add(TNode node) {
  TENSAT_CHECK(op_arity(node.op) == static_cast<int>(node.children.size()),
               "arity mismatch for " << op_info(node.op).name << ": got "
                                     << node.children.size());
  for (Id c : node.children)
    TENSAT_CHECK(c >= 0 && c < static_cast<Id>(nodes_.size()),
                 "child id out of range: " << c);
  auto it = memo_.find(node);
  if (it != memo_.end()) return it->second;

  ValueInfo info;
  if (kind_ == GraphKind::kConcrete) {
    TENSAT_CHECK(node.op != Op::kVar, "kVar node in a concrete graph");
    const ValueInfo* inputs[kMaxArity];
    for (size_t i = 0; i < node.children.size(); ++i) inputs[i] = &infos_[node.children[i]];
    auto inferred = infer(node, span<const ValueInfo* const>(inputs, node.children.size()));
    if (!inferred.has_value()) return std::nullopt;
    info = std::move(*inferred);
  }

  const Id id = static_cast<Id>(nodes_.size());
  nodes_.push_back(node);
  infos_.push_back(std::move(info));
  memo_.emplace(node, id);
  return id;
}

Id Graph::add(TNode node) {
  const Op op = node.op;
  auto id = try_add(std::move(node));
  TENSAT_CHECK(id.has_value(), "shape check failed adding " << op_info(op).name);
  return *id;
}

Id Graph::input(std::string_view name, const std::vector<int32_t>& dims) {
  return add({Op::kInput, 0, {}, {str(format_tensor_id(name, dims))}});
}

Id Graph::weight(std::string_view name, const std::vector<int32_t>& dims) {
  return add({Op::kWeight, 0, {}, {str(format_tensor_id(name, dims))}});
}

Id Graph::concat(int32_t axis, const std::vector<Id>& inputs) {
  TENSAT_CHECK(inputs.size() >= 2 && inputs.size() <= 5,
               "concat supports 2..5 inputs, got " << inputs.size());
  static constexpr Op kOps[] = {Op::kConcat2, Op::kConcat3, Op::kConcat4, Op::kConcat5};
  TNode n{kOps[inputs.size() - 2], 0, {}, {num(axis)}};
  for (Id in : inputs) n.children.push_back(in);
  return add(n);
}

void Graph::add_root(Id id) {
  TENSAT_CHECK(id >= 0 && id < static_cast<Id>(nodes_.size()), "bad root id");
  roots_.push_back(id);
}

Id Graph::single_root() {
  TENSAT_CHECK(!roots_.empty(), "graph has no roots");
  if (roots_.size() == 1) return roots_[0];
  Id combined = roots_[0];
  for (size_t i = 1; i < roots_.size(); ++i) combined = noop(combined, roots_[i]);
  roots_ = {combined};
  return combined;
}

std::vector<Id> Graph::topo_order() const {
  std::vector<Id> order;
  std::vector<int8_t> state(nodes_.size(), 0);  // 0=unvisited, 1=visiting, 2=done
  // Iterative DFS; children pushed before the node is emitted.
  std::vector<std::pair<Id, size_t>> stack;
  for (Id root : roots_) {
    if (state[root] == 2) continue;
    stack.emplace_back(root, 0);
    while (!stack.empty()) {
      auto& [id, next_child] = stack.back();
      if (state[id] == 2) {
        stack.pop_back();
        continue;
      }
      state[id] = 1;
      if (next_child < nodes_[id].children.size()) {
        const Id child = nodes_[id].children[next_child++];
        if (state[child] != 2) stack.emplace_back(child, 0);
      } else {
        state[id] = 2;
        order.push_back(id);
        stack.pop_back();
      }
    }
  }
  return order;
}

std::string Graph::to_sexpr(Id id) const {
  const TNode& n = nodes_[id];
  switch (n.op) {
    case Op::kNum:
      return std::to_string(n.num);
    case Op::kStr:
      return n.str.str();
    case Op::kVar:
      return "?" + n.str.str();
    default: {
      std::string out = "(";
      out += op_info(n.op).name;
      for (Id c : n.children) {
        out.push_back(' ');
        out += to_sexpr(c);
      }
      out.push_back(')');
      return out;
    }
  }
}

std::string Graph::canonical_key(span<const Id> roots) const {
  // Renumbers reachable nodes in DFS postorder from the roots in order,
  // children in order, each node at its first visit; two isomorphic rooted
  // hash-consed DAGs get identical serializations because that traversal
  // order is deterministic. One line per node, "<id>=<op>[:<payload>]"
  // then " <child id>" per child, then "roots:" and " <id>" per root.
  std::vector<int> renumber(nodes_.size(), -1);
  std::vector<std::pair<Id, size_t>> stack;
  std::string out;
  auto append_int = [&out](int64_t value) {
    char buf[24];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
    out.append(buf, end);
  };
  int next_id = 0;
  for (Id root : roots) {
    if (renumber[root] >= 0) continue;
    stack.emplace_back(root, 0);
    while (!stack.empty()) {
      auto& [id, next_child] = stack.back();
      const TNode& n = nodes_[id];
      if (next_child < n.children.size()) {
        const Id child = n.children[next_child++];
        if (renumber[child] < 0) stack.emplace_back(child, 0);
        continue;
      }
      renumber[id] = next_id;
      append_int(next_id++);
      out += '=';
      out += op_info(n.op).name;
      if (n.op == Op::kNum) {
        out += ':';
        append_int(n.num);
      }
      if (n.op == Op::kStr || n.op == Op::kVar) {
        out += ':';
        out += n.str.str();
      }
      for (Id c : n.children) {
        out += ' ';
        append_int(renumber[c]);
      }
      out += '\n';
      stack.pop_back();
    }
  }
  out += "roots:";
  for (Id root : roots) {
    out += ' ';
    append_int(renumber[root]);
  }
  return out;
}

std::unordered_map<Op, int> Graph::op_histogram() const {
  std::unordered_map<Op, int> hist;
  for (Id id : topo_order()) ++hist[nodes_[id].op];
  return hist;
}

}  // namespace tensat
