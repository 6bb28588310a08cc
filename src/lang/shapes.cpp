#include "lang/shapes.h"

#include <algorithm>
#include <sstream>

#include "support/check.h"

namespace tensat {
namespace {

bool is_num(const ValueInfo& v) { return v.kind == VKind::kNum; }
bool is_str(const ValueInfo& v) { return v.kind == VKind::kStr; }
bool is_tensor(const ValueInfo& v) { return v.kind == VKind::kTensor; }

bool valid_activation(int64_t a) { return a >= kActNone && a <= kActSigmoid; }
bool valid_padding(int64_t p) { return p == kPadSame || p == kPadValid; }

/// Output spatial extent of a convolution/pooling window.
std::optional<int32_t> window_out(int32_t in, int32_t kernel, int32_t stride, int64_t pad) {
  if (kernel <= 0 || stride <= 0 || in <= 0) return std::nullopt;
  if (pad == kPadSame) return (in + stride - 1) / stride;
  if (in < kernel) return std::nullopt;
  return (in - kernel) / stride + 1;
}

std::optional<ValueInfo> infer_conv(const ValueInfo& sh, const ValueInfo& sw,
                                    const ValueInfo& pad, const ValueInfo& act,
                                    const ValueInfo& x, const ValueInfo& w) {
  if (!is_num(sh) || !is_num(sw) || !is_num(pad) || !is_num(act)) return std::nullopt;
  if (!is_tensor(x) || !is_tensor(w)) return std::nullopt;
  if (x.rank() != 4 || w.rank() != 4) return std::nullopt;
  if (!valid_padding(pad.num) || !valid_activation(act.num)) return std::nullopt;
  if (sh.num <= 0 || sw.num <= 0) return std::nullopt;
  const int32_t n = x.shape[0], c = x.shape[1], h = x.shape[2], width = x.shape[3];
  const int32_t cout = w.shape[0], cin_per_group = w.shape[1];
  const int32_t kh = w.shape[2], kw = w.shape[3];
  if (cin_per_group <= 0 || c % cin_per_group != 0) return std::nullopt;
  const int32_t groups = c / cin_per_group;
  if (groups <= 0 || cout % groups != 0) return std::nullopt;
  const auto oh = window_out(h, kh, static_cast<int32_t>(sh.num), pad.num);
  const auto ow = window_out(width, kw, static_cast<int32_t>(sw.num), pad.num);
  if (!oh || !ow) return std::nullopt;
  ValueInfo out = ValueInfo::of_tensor({n, cout, *oh, *ow}, x.weight_only && w.weight_only);
  // Concat boundaries propagate through the convolution: a concat over the
  // input's batch axis splits the output batch, and a concat over the
  // weight's output-channel axis splits the output channels. This is what
  // lets `split 1` recover the two conv results from a merged conv
  // (paper Fig. 9) — TASO tracks the same "split locations".
  for (const ConcatEntry& e : x.hist)
    if (e.axis == 0) out.hist.push_back(ConcatEntry{0, e.pos});
  for (const ConcatEntry& e : w.hist)
    if (e.axis == 0) out.hist.push_back(ConcatEntry{1, e.pos});
  return out;
}

std::optional<ValueInfo> infer_pool(span<const ValueInfo* const> in) {
  const ValueInfo& x = *in[0];
  if (!is_tensor(x) || x.rank() != 4) return std::nullopt;
  for (int i = 1; i <= 6; ++i)
    if (!is_num(*in[i])) return std::nullopt;
  const int64_t kh = in[1]->num, kw = in[2]->num, sh = in[3]->num, sw = in[4]->num;
  const int64_t pad = in[5]->num, act = in[6]->num;
  if (!valid_padding(pad) || !valid_activation(act)) return std::nullopt;
  const auto oh = window_out(x.shape[2], static_cast<int32_t>(kh), static_cast<int32_t>(sh), pad);
  const auto ow = window_out(x.shape[3], static_cast<int32_t>(kw), static_cast<int32_t>(sw), pad);
  if (!oh || !ow) return std::nullopt;
  return ValueInfo::of_tensor({x.shape[0], x.shape[1], *oh, *ow}, x.weight_only);
}

std::optional<ValueInfo> infer_matmul(const ValueInfo& act, const ValueInfo& a,
                                      const ValueInfo& b) {
  if (!is_num(act) || !valid_activation(act.num)) return std::nullopt;
  if (!is_tensor(a) || !is_tensor(b)) return std::nullopt;
  const int ra = a.rank(), rb = b.rank();
  if (ra < 2 || ra > 3 || rb < 2 || rb > 3) return std::nullopt;
  const int32_t m = a.shape[ra - 2], k = a.shape[ra - 1];
  const int32_t k2 = b.shape[rb - 2], n = b.shape[rb - 1];
  if (k != k2) return std::nullopt;
  Dims dims;
  if (ra == 3 && rb == 3) {
    if (a.shape[0] != b.shape[0]) return std::nullopt;
    dims = {a.shape[0], m, n};
  } else if (ra == 3) {
    dims = {a.shape[0], m, n};  // broadcast b over the batch
  } else if (rb == 3) {
    dims = {b.shape[0], m, n};  // broadcast a over the batch
  } else {
    dims = {m, n};
  }
  ValueInfo out = ValueInfo::of_tensor(std::move(dims), a.weight_only && b.weight_only);
  // Concat boundaries propagate through matmul (see infer_conv): a concat on
  // a's row axis splits the output rows; a concat on b's column axis splits
  // the output columns (paper Fig. 2: split 1 after matmul-of-concat).
  const int rout = out.rank();
  for (const ConcatEntry& e : a.hist)
    if (e.axis == ra - 2) out.hist.push_back(ConcatEntry{rout - 2, e.pos});
  for (const ConcatEntry& e : b.hist)
    if (e.axis == rb - 1) out.hist.push_back(ConcatEntry{rout - 1, e.pos});
  return out;
}

std::optional<ValueInfo> infer_concat(span<const ValueInfo* const> in) {
  if (!is_num(*in[0])) return std::nullopt;
  const int64_t axis = in[0]->num;
  const auto tensors = in.subspan(1);
  if (!is_tensor(*tensors[0])) return std::nullopt;
  const int rank = tensors[0]->rank();
  if (axis < 0 || axis >= rank) return std::nullopt;
  bool weight_only = true;
  int32_t total = 0;
  for (const ValueInfo* t : tensors) {
    if (!is_tensor(*t) || t->rank() != rank) return std::nullopt;
    for (int d = 0; d < rank; ++d)
      if (d != axis && t->shape[d] != tensors[0]->shape[d]) return std::nullopt;
    total += t->shape[axis];
    weight_only = weight_only && t->weight_only;
  }
  ValueInfo out = ValueInfo::of_tensor(tensors[0]->shape, weight_only);
  out.shape[axis] = total;
  if (tensors.size() == 2) {
    // Binary concat records a split boundary: history prefix comes from the
    // first operand (see header comment).
    out.hist = tensors[0]->hist;
    out.hist.push_back(ConcatEntry{static_cast<int32_t>(axis), tensors[0]->shape[axis]});
  }
  return out;
}

std::optional<ValueInfo> infer_split(const ValueInfo& axis, const ValueInfo& t) {
  if (!is_num(axis) || !is_tensor(t)) return std::nullopt;
  if (axis.num < 0 || axis.num >= t.rank()) return std::nullopt;
  // Find the most recent concat entry along this axis.
  for (int i = static_cast<int>(t.hist.size()) - 1; i >= 0; --i) {
    if (t.hist[i].axis != axis.num) continue;
    const int32_t pos = t.hist[i].pos;
    if (pos <= 0 || pos >= t.shape[axis.num]) return std::nullopt;
    ValueInfo out;
    out.kind = VKind::kTuple;
    out.shape = t.shape;
    out.shape2 = t.shape;
    out.shape[axis.num] = pos;
    out.shape2[axis.num] = t.shape[axis.num] - pos;
    out.hist.assign(t.hist.begin(), t.hist.begin() + i);
    out.weight_only = t.weight_only;
    return out;
  }
  return std::nullopt;  // no concat boundary known for this axis
}

}  // namespace

int64_t ValueInfo::volume() const {
  int64_t v = 1;
  for (int32_t d : shape) v *= d;
  return v;
}

ValueInfo ValueInfo::of_num(int64_t v) {
  ValueInfo out;
  out.kind = VKind::kNum;
  out.num = v;
  return out;
}

ValueInfo ValueInfo::of_str(Symbol s) {
  ValueInfo out;
  out.kind = VKind::kStr;
  out.str = s;
  return out;
}

ValueInfo ValueInfo::of_tensor(Dims dims, bool weight_only) {
  ValueInfo out;
  out.kind = VKind::kTensor;
  out.shape = std::move(dims);
  out.weight_only = weight_only;
  return out;
}

std::optional<ValueInfo> infer(const TNode& node, span<const ValueInfo* const> in) {
  switch (node.op) {
    case Op::kNum:
      return ValueInfo::of_num(node.num);
    case Op::kStr:
      return ValueInfo::of_str(node.str);
    case Op::kVar:
      return std::nullopt;

    case Op::kInput:
    case Op::kWeight: {
      if (!is_str(*in[0])) return std::nullopt;
      auto [name, dims] = parse_tensor_id(in[0]->str.str());
      if (dims.empty()) return std::nullopt;
      for (int32_t d : dims)
        if (d <= 0) return std::nullopt;
      return ValueInfo::of_tensor(Dims(dims.data(), dims.data() + dims.size()),
                                  node.op == Op::kWeight);
    }

    case Op::kEwadd:
    case Op::kEwmul: {
      const ValueInfo& a = *in[0];
      const ValueInfo& b = *in[1];
      if (!is_tensor(a) || !is_tensor(b) || a.shape != b.shape) return std::nullopt;
      ValueInfo out = ValueInfo::of_tensor(a.shape, a.weight_only && b.weight_only);
      if (a.hist == b.hist) out.hist = a.hist;
      return out;
    }

    case Op::kMatmul:
      return infer_matmul(*in[0], *in[1], *in[2]);
    case Op::kConv:
      return infer_conv(*in[0], *in[1], *in[2], *in[3], *in[4], *in[5]);

    case Op::kRelu:
    case Op::kTanh:
    case Op::kSigmoid: {
      if (!is_tensor(*in[0])) return std::nullopt;
      ValueInfo out = *in[0];  // shape, hist, and weight-constness all carry over
      return out;
    }

    case Op::kPoolmax:
    case Op::kPoolavg:
      return infer_pool(in);

    case Op::kTranspose: {
      if (!is_tensor(*in[0]) || !is_str(*in[1])) return std::nullopt;
      const auto perm = parse_dims(in[1]->str.str());
      const int rank = in[0]->rank();
      if (static_cast<int>(perm.size()) != rank) return std::nullopt;
      std::vector<bool> seen(rank, false);
      Dims dims;
      for (int d = 0; d < rank; ++d) {
        if (perm[d] < 0 || perm[d] >= rank || seen[perm[d]]) return std::nullopt;
        seen[perm[d]] = true;
        dims.push_back(in[0]->shape[perm[d]]);
      }
      return ValueInfo::of_tensor(std::move(dims), in[0]->weight_only);
    }

    case Op::kEnlarge: {
      const ValueInfo& x = *in[0];
      const ValueInfo& ref = *in[1];
      if (!is_tensor(x) || !is_tensor(ref) || x.rank() != 4 || ref.rank() != 4)
        return std::nullopt;
      if (ref.shape[2] < x.shape[2] || ref.shape[3] < x.shape[3]) return std::nullopt;
      // Zero-padding is centered; require matching parity so the pad splits evenly.
      if ((ref.shape[2] - x.shape[2]) % 2 != 0 || (ref.shape[3] - x.shape[3]) % 2 != 0)
        return std::nullopt;
      return ValueInfo::of_tensor({x.shape[0], x.shape[1], ref.shape[2], ref.shape[3]},
                                  x.weight_only);
    }

    case Op::kConcat2:
    case Op::kConcat3:
    case Op::kConcat4:
    case Op::kConcat5:
      return infer_concat(in);

    case Op::kSplit:
      return infer_split(*in[0], *in[1]);

    case Op::kSplit0:
    case Op::kSplit1: {
      if (in[0]->kind != VKind::kTuple) return std::nullopt;
      ValueInfo out = ValueInfo::of_tensor(
          node.op == Op::kSplit0 ? in[0]->shape : in[0]->shape2, in[0]->weight_only);
      out.hist = in[0]->hist;
      return out;
    }

    case Op::kMerge: {
      const ValueInfo& w = *in[0];
      if (!is_tensor(w) || w.rank() != 4 || !is_num(*in[1])) return std::nullopt;
      const int64_t count = in[1]->num;
      if (count < 1 || w.shape[0] % count != 0) return std::nullopt;
      return ValueInfo::of_tensor(
          {w.shape[0], static_cast<int32_t>(w.shape[1] * count), w.shape[2], w.shape[3]},
          w.weight_only);
    }

    case Op::kReshape: {
      if (!is_tensor(*in[0]) || !is_str(*in[1])) return std::nullopt;
      const auto dims = parse_dims(in[1]->str.str());
      int64_t vol = 1;
      for (int32_t d : dims) {
        if (d <= 0) return std::nullopt;
        vol *= d;
      }
      if (vol != in[0]->volume()) return std::nullopt;
      return ValueInfo::of_tensor(Dims(dims.data(), dims.data() + dims.size()),
                                  in[0]->weight_only);
    }

    case Op::kNoop: {
      if (in[0]->kind == VKind::kInvalid || in[1]->kind == VKind::kInvalid)
        return std::nullopt;
      ValueInfo out;
      out.kind = VKind::kTensor;  // sentinel: empty shape, zero cost
      out.weight_only = false;
      return out;
    }

    case Op::kOpCount:
      break;
  }
  TENSAT_FAIL("infer: unhandled op");
}

std::string to_string(const ValueInfo& v) {
  std::ostringstream os;
  switch (v.kind) {
    case VKind::kInvalid:
      return "<invalid>";
    case VKind::kNum:
      os << "num(" << v.num << ")";
      return os.str();
    case VKind::kStr:
      os << "str(" << v.str.str() << ")";
      return os.str();
    case VKind::kTensor:
      os << "tensor[" << format_dims(v.shape) << "]";
      if (v.weight_only) os << " const";
      return os.str();
    case VKind::kTuple:
      os << "tuple[" << format_dims(v.shape) << " | " << format_dims(v.shape2) << "]";
      return os.str();
  }
  return "<?>";
}

}  // namespace tensat
