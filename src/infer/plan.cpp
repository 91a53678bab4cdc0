#include "infer/plan.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "graph/build.h"
#include "graph/passes.h"
#include "nn/batchnorm.h"
#include "quant/quantizer.h"
#include "tensor/bitpack.h"
#include "tensor/ops.h"

namespace adq::infer {
namespace {

// Quantizes `w` to l.bits codes and stores them packed. Convs keep the
// [out, patch] layout; linears store the transpose [in, out] so the weight
// sits on the GEMM B side. Matches FakeQuantizer per-tensor min/max and
// fake_quantize's nearbyint rounding exactly, so the integer path sees the
// identical eqn-1 grid the training path simulated.
void quantize_weights(GemmLayerPlan& l, const Tensor& w, bool transpose) {
  const std::int64_t count = w.numel();
  const std::int64_t out = l.out_channels;
  const std::int64_t inner = count / out;  // patch (conv) or fan-in (linear)
  const auto [lo, hi] = min_max(w);
  l.w_min = lo;
  l.cell_bits = cell_bits_for(l.bits);
  l.w_code_sums.assign(static_cast<std::size_t>(out), 0);

  std::vector<std::uint8_t> codes(static_cast<std::size_t>(count), 0);
  if (hi > lo) {
    const float levels =
        static_cast<float>(quant::max_code(std::min(l.bits, 8)));
    l.w_scale = (hi - lo) / levels;
    const float inv = levels / (hi - lo);
    const float* pw = w.data();
    for (std::int64_t o = 0; o < out; ++o) {
      std::int32_t row_sum = 0;
      for (std::int64_t i = 0; i < inner; ++i) {
        const float v = std::clamp(pw[o * inner + i], lo, hi);
        const auto q =
            static_cast<std::uint8_t>(std::nearbyint((v - lo) * inv));
        codes[static_cast<std::size_t>(transpose ? i * out + o
                                                 : o * inner + i)] = q;
        row_sum += q;
      }
      l.w_code_sums[static_cast<std::size_t>(o)] = row_sum;
    }
  } else {
    l.w_scale = 0.0f;  // degenerate range: every weight equals w_min
  }
  l.weight_codes.resize(
      static_cast<std::size_t>(packed_bytes(count, l.cell_bits)));
  pack_codes(codes.data(), count, l.cell_bits, l.weight_codes.data());
}

// Shared tail of the plan_* builders: pick the path, snapshot weights, and
// initialise the identity epilogue.
void plan_weights(GemmLayerPlan& l, const Tensor& w, bool transpose,
                  const CompileOptions& opts) {
  const int ceiling = std::min(opts.max_integer_bits, 8);
  if (l.quantize_input && l.bits <= ceiling) {
    l.path = ExecPath::kInteger;
    quantize_weights(l, w, transpose);
  } else {
    l.path = ExecPath::kFloat;
    l.weight_f = l.quantize_input ? quant::fake_quantize(w, l.bits) : w;
  }
  l.epi_scale.assign(static_cast<std::size_t>(l.out_channels), 1.0f);
  l.epi_shift.assign(static_cast<std::size_t>(l.out_channels), 0.0f);
}

// Folds the eval-mode BatchNorm affine and then the conv bias into the
// per-channel epilogue.
void fold_bn_and_bias(GemmLayerPlan& l, nn::BatchNorm2d* bn,
                      nn::Parameter* bias) {
  if (bn != nullptr && !bn->bypassed()) {
    const Tensor& mean = bn->running_mean();
    const Tensor& var = bn->running_var();
    for (std::int64_t c = 0; c < l.out_channels; ++c) {
      const float inv_std = 1.0f / std::sqrt(var[c] + bn->eps());
      const float a = bn->gamma().value[c] * inv_std;
      l.epi_scale[static_cast<std::size_t>(c)] = a;
      l.epi_shift[static_cast<std::size_t>(c)] = bn->beta().value[c] - a * mean[c];
    }
  }
  if (bias != nullptr) {
    for (std::int64_t c = 0; c < l.out_channels; ++c) {
      l.epi_shift[static_cast<std::size_t>(c)] +=
          l.epi_scale[static_cast<std::size_t>(c)] * bias->value[c];
    }
  }
}

// The plan_* internals take quantize_input explicitly: the graph pipeline
// decides it by pass (elide_quantize absorbs the layer's input quantizer);
// the public wrappers below re-derive the training-forward condition for
// callers compiling a bare layer.
//
// Conv2d and DepthwiseConv2d share every accessor the plan needs except
// the channel counts, so one templated builder serves both — a change to
// the shared tail can never reach one layer kind and miss the other.
template <typename ConvLike>
GemmLayerPlan plan_conv_like(ConvLike& conv, bool is_depthwise,
                             std::int64_t in_channels,
                             std::int64_t out_channels, nn::BatchNorm2d* bn,
                             bool fuse_relu, bool quantize_input,
                             const CompileOptions& opts) {
  GemmLayerPlan l;
  l.name = conv.name();
  l.is_conv = true;
  l.is_depthwise = is_depthwise;
  l.in_channels = in_channels;
  l.out_channels = out_channels;
  l.kernel = conv.kernel();
  l.stride = conv.stride();
  l.pad = conv.pad();
  l.bits = conv.bits();
  l.quantize_input = quantize_input;
  l.relu = fuse_relu;
  l.active_out = conv.active_out_channels();
  plan_weights(l, conv.weight().value, /*transpose=*/false, opts);
  fold_bn_and_bias(l, bn, conv.bias());
  return l;
}

GemmLayerPlan plan_conv_node(nn::Conv2d& conv, nn::BatchNorm2d* bn,
                             bool fuse_relu, bool quantize_input,
                             const CompileOptions& opts) {
  return plan_conv_like(conv, /*is_depthwise=*/false, conv.in_channels(),
                        conv.out_channels(), bn, fuse_relu, quantize_input,
                        opts);
}

GemmLayerPlan plan_depthwise_node(nn::DepthwiseConv2d& conv,
                                  nn::BatchNorm2d* bn, bool fuse_relu,
                                  bool quantize_input,
                                  const CompileOptions& opts) {
  return plan_conv_like(conv, /*is_depthwise=*/true, conv.channels(),
                        conv.channels(), bn, fuse_relu, quantize_input, opts);
}

GemmLayerPlan plan_linear_node(nn::Linear& linear, bool fuse_relu,
                               bool quantize_input,
                               const CompileOptions& opts) {
  GemmLayerPlan l;
  l.name = linear.name();
  l.is_conv = false;
  l.in_channels = linear.in_features();
  l.out_channels = linear.out_features();
  l.bits = linear.bits();
  l.quantize_input = quantize_input;
  l.relu = fuse_relu;
  l.active_out = l.out_channels;
  plan_weights(l, linear.weight().value, /*transpose=*/true, opts);
  if (nn::Parameter* b = linear.bias()) {
    for (std::int64_t c = 0; c < l.out_channels; ++c) {
      l.epi_shift[static_cast<std::size_t>(c)] = b->value[c];
    }
  }
  return l;
}

// ---------------------------------------------------------------------------
// Graph -> plan emission.
//
// The engine is a stack machine over one "current" tensor plus a skip
// stack, so lowering walks the legalized DAG recursively: chains emit in
// producer order, and a residual diamond emits as
//   PushSkip -> [QuantizeSkip] -> <main-branch ops> -> [SkipGemm]
//   -> AddSkipRelu.
// The Fig-2 skip quantizer runs right after the push, into its own slot
// (packed codes or float words), so the fork slot is free as soon as the
// main branch has read it. The skip branch may hold at most that
// quantizer and one (BN-folded)
// conv — exactly what the skip stack can express; deeper skip branches
// are an IR capability the engine does not have yet, and lowering says so
// rather than miscompiling. Branch decomposition is shared with the
// memory planner (graph::decompose_residual), so op emission and slot
// liveness agree by construction.
//
// graph::plan_memory must have annotated the graph: every op carries the
// arena slot its output occupies (out_offset; -1 = in place / pure view)
// and the plan records the arena footprint + planned input shape.
// ---------------------------------------------------------------------------

class Lowerer {
 public:
  Lowerer(const graph::Graph& g, const CompileOptions& opts)
      : g_(g), opts_(opts) {
    if (g.output() < 0 || g.at(g.output()).mem.def < 0 ||
        g.arena_bytes() <= 0) {
      throw std::logic_error("infer::lower_to_plan: graph '" + g.name() +
                             "' has no memory plan (run graph::plan_memory "
                             "first)");
    }
  }

  InferencePlan run() {
    plan_.model_name = g_.name();
    emit_value(g_.output());
    plan_.arena_bytes = g_.arena_bytes();
    plan_.arena_bytes_u8 = g_.arena_bytes_u8();
    const graph::ValueType& in = g_.at(g_.input()).type;
    plan_.planned_input.rank = in.rank;
    plan_.planned_input.channels = in.channels;
    plan_.planned_input.height = in.height;
    plan_.planned_input.width = in.width;
    return std::move(plan_);
  }

 private:
  [[noreturn]] void cannot_lower(const graph::Node& n,
                                 const std::string& why) {
    throw std::invalid_argument("infer::lower_to_plan: node '" + n.name +
                                "' (" + graph::kind_name(n.kind) + "): " +
                                why);
  }

  // Arena slot the op producing `n`'s value writes to: -1 (in place /
  // pure view) or the planner's byte offset.
  std::int64_t out_slot(const graph::Node& n) const {
    return n.mem.inplace ? -1 : n.mem.offset;
  }

  // Copies the planner's activation-storage decision onto the op. A packed
  // value must own a real slot — the planner never aliases packed storage
  // in place, so a missing slot here is a planner/lowering disagreement.
  void annotate_act(OpPlan& op, const graph::Node& n) {
    if (n.mem.act_bits <= 0) return;
    if (op.out_offset < 0) {
      cannot_lower(n, "packed activation value has no arena slot");
    }
    op.out_act_bits = n.mem.act_bits;
    op.out_act_qbits = n.mem.act_qbits;
  }

  void emit_gemm(GemmLayerPlan layer, OpKind kind, const graph::Node& n) {
    // A GEMM consuming a packed value reads the stored codes instead of
    // quantizing; that is only exact when the layer runs the integer path
    // on the very grid the codes were produced for.
    const graph::Node& in = g_.at(n.inputs[0]);
    if (in.mem.act_bits > 0 &&
        (layer.path != ExecPath::kInteger ||
         in.mem.act_qbits != layer.bits)) {
      cannot_lower(n, "consumes a packed activation value quantized on a "
                      "grid this layer cannot read");
    }
    plan_.layers.push_back(std::move(layer));
    OpPlan op;
    op.kind = kind;
    op.layer = static_cast<int>(plan_.layers.size()) - 1;
    op.out_offset = out_slot(n);
    annotate_act(op, n);
    plan_.ops.push_back(op);
  }

  GemmLayerPlan plan_for(const graph::Node& n) {
    switch (n.kind) {
      case graph::NodeKind::kConv:
        return plan_conv_node(*n.conv, n.bn, n.fused_relu, n.quantize_input,
                              opts_);
      case graph::NodeKind::kDepthwiseConv:
        return plan_depthwise_node(*n.dwconv, n.bn, n.fused_relu,
                                   n.quantize_input, opts_);
      case graph::NodeKind::kLinear:
        return plan_linear_node(*n.linear, n.fused_relu, n.quantize_input,
                                opts_);
      default:
        cannot_lower(n, "not a GEMM node");
    }
  }

  // Emits the op consuming the current tensor and producing n's value.
  void emit_op(const graph::Node& n) {
    OpPlan op;
    switch (n.kind) {
      case graph::NodeKind::kConv:
      case graph::NodeKind::kDepthwiseConv:
      case graph::NodeKind::kLinear:
        emit_gemm(plan_for(n), OpKind::kGemm, n);
        return;
      case graph::NodeKind::kReLU:
        op.kind = OpKind::kReLU;
        break;
      case graph::NodeKind::kMaxPool:
        op.kind = OpKind::kMaxPool;
        op.pool_kernel = n.pool_kernel;
        op.pool_stride = n.pool_stride;
        break;
      case graph::NodeKind::kGlobalAvgPool:
        op.kind = OpKind::kGlobalAvgPool;
        break;
      case graph::NodeKind::kFlatten:
        op.kind = OpKind::kFlatten;
        break;
      case graph::NodeKind::kQuantize:
        // A quantizer no pass could fuse (e.g. hand-built graphs): executed
        // as an explicit eqn-1 snap of the current tensor.
        op.kind = OpKind::kQuantize;
        op.skip_bits = n.bits;
        break;
      case graph::NodeKind::kBatchNorm:
        cannot_lower(n, "BatchNorm was not folded into a conv "
                        "(run graph::legalize first)");
      default:
        cannot_lower(n, "unsupported op");
    }
    op.out_offset = n.kind == graph::NodeKind::kFlatten ? -1 : out_slot(n);
    if (n.kind != graph::NodeKind::kFlatten) annotate_act(op, n);
    plan_.ops.push_back(op);
  }

  // Ensures the engine's current tensor holds node `id`'s value.
  void emit_value(int id) {
    const graph::Node& n = g_.at(id);
    switch (n.kind) {
      case graph::NodeKind::kInput:
        return;  // current = the engine's input tensor
      case graph::NodeKind::kOutput:
        emit_value(n.inputs[0]);
        return;
      case graph::NodeKind::kAdd:
        emit_add(id);
        return;
      default:
        emit_value(n.inputs[0]);
        emit_op(n);
        return;
    }
  }

  void emit_add(int add_id) {
    const graph::Node& add = g_.at(add_id);
    // Shared decomposition with the memory planner's execution schedule
    // (see graph::decompose_residual): fork, lazily-quantized skip, at
    // most one downsample conv.
    const graph::ResidualParts parts = graph::decompose_residual(g_, add_id);

    emit_value(parts.fork);
    OpPlan push;
    push.kind = OpKind::kPushSkip;
    plan_.ops.push_back(push);  // the skip aliases the fork slot

    // The skip quantizer runs right after the push, into its own slot.
    // Mirrors graph::execution_schedule — op order and slot liveness must
    // agree.
    if (parts.quantize >= 0) {
      const graph::Node& q = g_.at(parts.quantize);
      OpPlan quant;
      quant.kind = OpKind::kQuantizeSkip;
      quant.skip_bits = q.bits;
      quant.out_offset = out_slot(q);
      annotate_act(quant, q);
      plan_.ops.push_back(quant);
    }

    for (int m : parts.main_chain) emit_op(g_.at(m));

    if (parts.downsample >= 0) {
      emit_gemm(plan_for(g_.at(parts.downsample)), OpKind::kSkipGemm,
                g_.at(parts.downsample));
    }

    if (!add.fused_relu) {
      cannot_lower(add, "the engine's residual add always rectifies; an add "
                        "without a fused ReLU cannot execute");
    }
    OpPlan op;
    op.kind = OpKind::kAddSkipRelu;
    op.mask_channels = add.mask_channels;
    op.out_offset = out_slot(add);
    annotate_act(op, add);
    plan_.ops.push_back(op);
  }

  const graph::Graph& g_;
  const CompileOptions& opts_;
  InferencePlan plan_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Shape simulation over the op list — the same walk the executor performs,
// on batch-agnostic shapes. Used for slot validation (engine ctor), the
// activation-traffic report, and tests.
// ---------------------------------------------------------------------------

namespace {

std::int64_t shape_elems(const PlannedInput& s) {
  return s.rank == 3 ? s.channels * s.height * s.width : s.channels;
}

PlannedInput gemm_out_shape(const GemmLayerPlan& l, const PlannedInput& in) {
  if (!l.is_conv) {
    PlannedInput out;
    out.rank = 1;
    out.channels = l.out_channels;
    return out;
  }
  PlannedInput out;
  out.rank = 3;
  out.channels = l.out_channels;
  out.height = l.out_extent(in.height);
  out.width = l.out_extent(in.width);
  return out;
}

// Walks the op list from `input`, reporting each op's consumed and
// produced value shapes to `visit(op_index, in_elems, out_shape)`.
// in_elems counts every operand (the residual add reads main + skip).
template <typename Visit>
void walk_op_shapes(const InferencePlan& plan, Visit&& visit) {
  if (plan.planned_input.rank == 0) {
    throw std::logic_error("infer: plan '" + plan.model_name +
                           "' carries no planned input shape (no memory "
                           "plan)");
  }
  PlannedInput cur = plan.planned_input;
  std::vector<PlannedInput> skips;
  for (std::size_t i = 0; i < plan.ops.size(); ++i) {
    const OpPlan& op = plan.ops[i];
    switch (op.kind) {
      case OpKind::kGemm: {
        const GemmLayerPlan& l =
            plan.layers[static_cast<std::size_t>(op.layer)];
        const std::int64_t in = shape_elems(cur);
        cur = gemm_out_shape(l, cur);
        visit(i, in, cur);
        break;
      }
      case OpKind::kMaxPool: {
        const std::int64_t in = shape_elems(cur);
        cur.height = (cur.height - op.pool_kernel) / op.pool_stride + 1;
        cur.width = (cur.width - op.pool_kernel) / op.pool_stride + 1;
        visit(i, in, cur);
        break;
      }
      case OpKind::kGlobalAvgPool: {
        const std::int64_t in = shape_elems(cur);
        cur.rank = 1;
        cur.height = cur.width = 0;
        visit(i, in, cur);
        break;
      }
      case OpKind::kFlatten: {
        const std::int64_t in = shape_elems(cur);
        cur.channels = in;
        cur.rank = 1;
        cur.height = cur.width = 0;
        visit(i, in, cur);
        break;
      }
      case OpKind::kReLU:
      case OpKind::kQuantize:
        visit(i, shape_elems(cur), cur);
        break;
      case OpKind::kPushSkip:
        skips.push_back(cur);
        visit(i, shape_elems(cur), cur);
        break;
      case OpKind::kQuantizeSkip:
        if (skips.empty()) {
          throw std::logic_error("infer: quantize-skip without a saved skip");
        }
        visit(i, shape_elems(skips.back()), skips.back());
        break;
      case OpKind::kSkipGemm: {
        if (skips.empty()) {
          throw std::logic_error("infer: skip gemm without a saved skip");
        }
        const GemmLayerPlan& l =
            plan.layers[static_cast<std::size_t>(op.layer)];
        const std::int64_t in = shape_elems(skips.back());
        skips.back() = gemm_out_shape(l, skips.back());
        visit(i, in, skips.back());
        break;
      }
      case OpKind::kAddSkipRelu: {
        if (skips.empty()) {
          throw std::logic_error("infer: residual add without a saved skip");
        }
        const std::int64_t in = shape_elems(cur) + shape_elems(skips.back());
        skips.pop_back();
        visit(i, in, cur);
        break;
      }
    }
  }
}

}  // namespace

std::vector<std::int64_t> InferencePlan::op_out_elems() const {
  std::vector<std::int64_t> out(ops.size(), 0);
  walk_op_shapes(*this, [&](std::size_t i, std::int64_t, const PlannedInput& o) {
    out[i] = shape_elems(o);
  });
  return out;
}

ActivationReport InferencePlan::activation_report(std::int64_t batch) const {
  ActivationReport report;
  report.arena_bytes = arena_bytes;
  report.peak_bytes = arena_bytes * batch;
  report.ops.resize(ops.size());
  walk_op_shapes(*this, [&](std::size_t i, std::int64_t in_elems,
                            const PlannedInput& out_shape) {
    const OpPlan& op = ops[i];
    OpActivation& a = report.ops[i];
    a.in_elems = in_elems * batch;
    a.out_elems = shape_elems(out_shape) * batch;
    a.bits = 32;
    switch (op.kind) {
      case OpKind::kGemm:
      case OpKind::kSkipGemm: {
        const GemmLayerPlan& l = layers[static_cast<std::size_t>(op.layer)];
        a.name = l.name;
        a.integer_path = l.path == ExecPath::kInteger;
        if (a.integer_path) a.bits = l.bits;
        break;
      }
      case OpKind::kMaxPool: a.name = "maxpool"; break;
      case OpKind::kGlobalAvgPool: a.name = "gap"; break;
      case OpKind::kFlatten: a.name = "flatten"; break;
      case OpKind::kReLU: a.name = "relu"; break;
      case OpKind::kPushSkip: a.name = "push_skip"; break;
      case OpKind::kQuantize: a.name = "quantize"; break;
      case OpKind::kQuantizeSkip: a.name = "quantize_skip"; break;
      case OpKind::kAddSkipRelu: a.name = "add_skip_relu"; break;
    }
    // Integer GEMMs read activations as k-bit codes packed one per byte;
    // everything else moves 32-bit float words. Flatten is a pure view and
    // an un-quantized push aliases its input, so neither moves data.
    const bool no_traffic =
        op.kind == OpKind::kFlatten || op.kind == OpKind::kPushSkip;
    if (!no_traffic) {
      a.in_bytes = a.integer_path ? a.in_elems
                                  : a.in_elems *
                                        static_cast<std::int64_t>(sizeof(float));
      a.out_bytes = a.out_elems * static_cast<std::int64_t>(sizeof(float));
    }
    report.total_bytes += a.in_bytes + a.out_bytes;
  });
  return report;
}

std::size_t GemmLayerPlan::weight_bytes() const {
  if (path == ExecPath::kInteger) return weight_codes.size();
  return static_cast<std::size_t>(weight_f.numel()) * sizeof(float);
}

std::size_t InferencePlan::weight_bytes() const {
  std::size_t total = 0;
  for (const GemmLayerPlan& l : layers) total += l.weight_bytes();
  return total;
}

int InferencePlan::integer_layer_count() const {
  int n = 0;
  for (const GemmLayerPlan& l : layers) n += l.path == ExecPath::kInteger;
  return n;
}

std::array<int, 9> InferencePlan::act_cell_histogram() const {
  std::array<int, 9> counts{};
  for (const OpPlan& op : ops) {
    if (op.out_offset < 0) continue;  // no slot of its own
    counts[static_cast<std::size_t>(op.out_act_bits)] += 1;
  }
  return counts;
}

GemmLayerPlan plan_conv(nn::Conv2d& conv, nn::BatchNorm2d* bn,
                        bool fuse_relu, const CompileOptions& opts) {
  return plan_conv_node(conv, bn, fuse_relu,
                        conv.quantization_enabled() && conv.bits() < 24,
                        opts);
}

GemmLayerPlan plan_depthwise(nn::DepthwiseConv2d& conv, nn::BatchNorm2d* bn,
                             bool fuse_relu, const CompileOptions& opts) {
  return plan_depthwise_node(conv, bn, fuse_relu,
                             conv.quantization_enabled() && conv.bits() < 24,
                             opts);
}

GemmLayerPlan plan_linear(nn::Linear& linear, bool fuse_relu,
                          const CompileOptions& opts) {
  return plan_linear_node(linear, fuse_relu,
                          linear.quantization_enabled() && linear.bits() < 24,
                          opts);
}

InferencePlan lower_to_plan(const graph::Graph& g,
                            const CompileOptions& opts) {
  return Lowerer(g, opts).run();
}

InferencePlan compile(models::QuantizableModel& model,
                      const CompileOptions& opts) {
  graph::Graph g = graph::build_from_model(model);
  graph::legalize(g);
  // The storage planner must agree with plan_weights on which layers run
  // the integer path, or it would pack a value its consumer cannot read.
  graph::ActStorageOptions aopts;
  aopts.max_integer_bits = opts.max_integer_bits;
  graph::plan_memory(g, aopts);
  return lower_to_plan(g, opts);
}

}  // namespace adq::infer
