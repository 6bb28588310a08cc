#include "tensor/interp.h"

#include "support/check.h"
#include "support/hash.h"

namespace tensat {
namespace {

const Tensor& as_tensor(const Value& v) {
  const Tensor* t = std::get_if<Tensor>(&v);
  TENSAT_CHECK(t != nullptr, "expected tensor value");
  return *t;
}

int64_t as_num(const Value& v) {
  const int64_t* n = std::get_if<int64_t>(&v);
  TENSAT_CHECK(n != nullptr, "expected integer value");
  return *n;
}

Symbol as_str(const Value& v) {
  const Symbol* s = std::get_if<Symbol>(&v);
  TENSAT_CHECK(s != nullptr, "expected string value");
  return *s;
}

}  // namespace

Tensor Interpreter::fetch(const std::string& id_text) {
  auto [name, dims] = parse_tensor_id(id_text);
  auto it = feeds_.find(name);
  if (it != feeds_.end()) {
    TENSAT_CHECK(it->second.dims() == dims,
                 "fed tensor '" << name << "' has wrong shape");
    return it->second;
  }
  size_t h = seed_;
  hash_combine_value(h, name);
  return random_tensor(dims, h);
}

Value Interpreter::eval(const Graph& g, Id id,
                        const std::unordered_map<Id, Value>& values) {
  const TNode& n = g.node(id);
  auto in = [&](int i) -> const Value& { return values.at(n.children[i]); };
  switch (n.op) {
    case Op::kNum:
      return n.num;
    case Op::kStr:
      return n.str;
    case Op::kInput:
    case Op::kWeight:
      return fetch(as_str(in(0)).str());
    case Op::kEwadd:
      return ewadd(as_tensor(in(0)), as_tensor(in(1)));
    case Op::kEwmul:
      return ewmul(as_tensor(in(0)), as_tensor(in(1)));
    case Op::kMatmul:
      return matmul(as_tensor(in(1)), as_tensor(in(2)),
                    static_cast<Activation>(as_num(in(0))));
    case Op::kConv:
      return conv2d(as_tensor(in(4)), as_tensor(in(5)),
                    static_cast<int32_t>(as_num(in(0))),
                    static_cast<int32_t>(as_num(in(1))),
                    static_cast<Padding>(as_num(in(2))),
                    static_cast<Activation>(as_num(in(3))));
    case Op::kRelu:
      return activation(as_tensor(in(0)), kActRelu);
    case Op::kTanh:
      return activation(as_tensor(in(0)), kActTanh);
    case Op::kSigmoid:
      return activation(as_tensor(in(0)), kActSigmoid);
    case Op::kPoolmax:
    case Op::kPoolavg: {
      const auto kh = static_cast<int32_t>(as_num(in(1)));
      const auto kw = static_cast<int32_t>(as_num(in(2)));
      const auto sh = static_cast<int32_t>(as_num(in(3)));
      const auto sw = static_cast<int32_t>(as_num(in(4)));
      const auto pad = static_cast<Padding>(as_num(in(5)));
      const auto act = static_cast<Activation>(as_num(in(6)));
      return n.op == Op::kPoolmax
                 ? poolmax(as_tensor(in(0)), kh, kw, sh, sw, pad, act)
                 : poolavg(as_tensor(in(0)), kh, kw, sh, sw, pad, act);
    }
    case Op::kTranspose: {
      const auto perm = parse_dims(as_str(in(1)).str());
      return transpose(as_tensor(in(0)), perm);
    }
    case Op::kEnlarge: {
      const Tensor& ref = as_tensor(in(1));
      return enlarge(as_tensor(in(0)), ref.dims()[2], ref.dims()[3]);
    }
    case Op::kConcat2:
    case Op::kConcat3:
    case Op::kConcat4:
    case Op::kConcat5: {
      const auto axis = static_cast<int32_t>(as_num(in(0)));
      std::vector<const Tensor*> inputs;
      for (size_t i = 1; i < n.children.size(); ++i)
        inputs.push_back(&as_tensor(in(static_cast<int>(i))));
      return concat(axis, inputs);
    }
    case Op::kSplit: {
      const auto axis = static_cast<int32_t>(as_num(in(0)));
      // Boundary determined by shape analysis (most recent concat).
      const ValueInfo& info = g.info(id);
      TENSAT_CHECK(info.kind == VKind::kTuple, "split: analysis missing");
      auto [a, b] = split_at(as_tensor(in(1)), axis, info.shape[axis]);
      return TensorPair{std::move(a), std::move(b)};
    }
    case Op::kSplit0:
    case Op::kSplit1: {
      const TensorPair* p = std::get_if<TensorPair>(&in(0));
      TENSAT_CHECK(p != nullptr, "split0/1: expected tuple value");
      return n.op == Op::kSplit0 ? p->first : p->second;
    }
    case Op::kReshape: {
      const auto dims = parse_dims(as_str(in(1)).str());
      return reshape(as_tensor(in(0)), dims);
    }
    case Op::kMerge:
      TENSAT_FAIL("interpreter does not support merge (see DESIGN.md)");
    case Op::kNoop:
      return Tensor{};  // grouping only; no data
    case Op::kVar:
    case Op::kOpCount:
      break;
  }
  TENSAT_FAIL("cannot interpret op " << op_info(n.op).name);
}

std::unordered_map<Id, Value> Interpreter::run(const Graph& g) {
  TENSAT_CHECK(g.kind() == GraphKind::kConcrete, "cannot interpret a pattern graph");
  std::unordered_map<Id, Value> values;
  for (Id id : g.topo_order()) values.emplace(id, eval(g, id, values));
  return values;
}

std::vector<Tensor> Interpreter::run_roots(const Graph& g) {
  TENSAT_CHECK(g.kind() == GraphKind::kConcrete, "cannot interpret a pattern graph");
  // Pending reads per node: one per child edge (an operand used twice counts
  // twice) and one per root reference, which keeps roots alive to the end.
  // A value is freed once its last reader has run, so at most the live
  // frontier of the graph is held instead of every intermediate tensor.
  const std::vector<Id> order = g.topo_order();
  std::vector<uint32_t> pending(g.size(), 0);
  for (Id id : order)
    for (Id c : g.node(id).children) ++pending[c];
  for (Id root : g.roots()) ++pending[root];
  std::unordered_map<Id, Value> values;
  for (Id id : order) {
    values.emplace(id, eval(g, id, values));
    for (Id c : g.node(id).children)
      if (--pending[c] == 0) values.erase(c);
  }
  std::vector<Tensor> out;
  out.reserve(g.roots().size());
  for (Id root : g.roots()) out.push_back(as_tensor(values.at(root)));
  return out;
}

}  // namespace tensat
