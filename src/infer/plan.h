// Integer inference engine — the compile step.
//
// The AD controller (Algorithm 1) leaves a trained QuantizableModel with a
// per-layer bit-width vector, but the training graph only *simulates* that
// precision in float (fake quantization, eqn 1). compile() turns the model
// into an InferencePlan that realises it:
//
//   * weights are quantized ONCE to their eqn-1 integer codes and stored
//     packed — one byte per code at 5-8 bits, bit-packed 4-/2-/1-bit cells
//     for sub-byte layers (see tensor/bitpack.h), so a 4-bit layer really
//     occupies 1/8th of its float footprint;
//   * BatchNorm (eval-mode running statistics) and the conv bias fold into
//     a per-channel affine epilogue y = a[c] * raw + b[c], fused with the
//     following ReLU and the eqn-5 channel mask;
//   * layers whose bits exceed the integer ceiling (default 8) or whose
//     quantizers are disabled (the paper's exempt first conv / final FC)
//     fall back to a float op that reproduces the training-path math.
//
// compile() works in two stages: graph::build_from_model() lowers the
// trained network into the typed dataflow IR (src/graph), the legalization
// passes fold BN, fuse ReLU epilogues, and elide/absorb quantizers, and
// lower_to_plan() walks the legalized graph emitting the op list the
// engine interprets. Any topology the IR can express (plain chains,
// residual diamonds, depthwise-separable blocks) compiles without touching
// this file again.
//
// The executed integer arithmetic is algebraically identical to the
// fake-quant float path: with x = x_min + s_x * q_x for every operand,
//
//   sum (a_min + s_a q_a)(w_min + s_w q_w)
//     = s_a s_w * dot(q_a, q_w)              <- u8 GEMM, int32 exact
//     + a_min s_w * sum(q_w)                 <- per-output, precomputed
//     + w_min s_a * sum(q_a)                 <- per-column, one pass
//     + K * a_min * w_min,                   <- constant
//
// so parity with the fake-quant path holds to float rounding at every
// bit-width, which tests/test_infer.cpp asserts per bit-width. The same
// identity applies per channel to depthwise convolutions (K = kernel^2).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "models/model.h"
#include "nn/conv2d.h"
#include "nn/depthwise.h"
#include "nn/linear.h"
#include "tensor/tensor.h"

namespace adq::infer {

enum class ExecPath {
  kInteger,  // packed codes + u8 GEMM + int32 accumulation
  kFloat,    // fake-quant float math (wide or quantization-exempt layers)
};

struct CompileOptions {
  /// Layers at <= this many bits execute on the integer path; wider layers
  /// (the 16-bit frozen ends, un-rounded 9..23-bit ablations) run in float.
  /// Clamped to 8 — codes must fit a byte.
  int max_integer_bits = 8;
};

/// One compiled conv, depthwise-conv or linear layer: pre-quantized weights
/// plus the fused requantize + BatchNorm + bias + ReLU + channel-mask
/// epilogue.
struct GemmLayerPlan {
  std::string name;
  bool is_conv = true;
  /// Depthwise spatial conv (is_conv is also true): each output channel
  /// convolves only its own input channel, so the reduction depth is
  /// kernel^2 and in_channels == out_channels.
  bool is_depthwise = false;
  ExecPath path = ExecPath::kFloat;

  // Geometry. Linear layers use in_channels/out_channels as in/out features.
  std::int64_t in_channels = 0, out_channels = 0;
  std::int64_t kernel = 1, stride = 1, pad = 0;

  int bits = 16;               // eqn-1 grid for weights and activations
  bool quantize_input = false; // false when the layer's quantizers are off

  // Integer path: packed weight codes. Convs store [out, patch] row-major
  // (GEMM A operand; depthwise [channels, kernel^2]); linears store the
  // transpose [in, out] (GEMM B operand). cell_bits is the packed cell
  // width {1,2,4,8}.
  int cell_bits = 8;
  std::vector<std::uint8_t> weight_codes;
  float w_min = 0.0f;
  float w_scale = 0.0f;                 // (w_max - w_min) / (2^bits - 1)
  std::vector<std::int32_t> w_code_sums;  // per output: sum of its codes

  // Float path: weights already snapped to the eqn-1 grid at compile time
  // (or raw when quantization is disabled). Convs [out, patch]; linears
  // [out, in] like nn::Linear.
  Tensor weight_f;

  // Epilogue: y[c] = epi_scale[c] * raw[c] + epi_shift[c] (BatchNorm eval
  // affine with the conv bias folded in), then ReLU when `relu`, then
  // channels >= active_out forced to zero (eqn-5 mask).
  std::vector<float> epi_scale, epi_shift;
  bool relu = false;
  std::int64_t active_out = 0;

  /// GEMM reduction depth: conv patch size, depthwise kernel^2, or linear
  /// fan-in.
  std::int64_t patch() const {
    if (!is_conv) return in_channels;
    return is_depthwise ? kernel * kernel : in_channels * kernel * kernel;
  }

  /// Spatial output extent of this conv for input extent `in` (identity
  /// for linears). The ONE copy of the conv output arithmetic that both
  /// the executor's shape tracking and the plan-level slot validation /
  /// traffic simulation use, so the validator can never disagree with
  /// what the kernels (whose im2col ConvGeometry contract mirrors this
  /// formula) actually write.
  std::int64_t out_extent(std::int64_t in) const {
    return is_conv ? (in + 2 * pad - kernel) / stride + 1 : in;
  }

  /// Resident weight bytes of this layer (packed codes or float words).
  std::size_t weight_bytes() const;
};

/// Non-GEMM graph steps the engine interprets around the compiled layers.
enum class OpKind {
  kGemm,         // layers[op.layer] applied to the current tensor
  kMaxPool,      // pool_kernel / pool_stride
  kGlobalAvgPool,
  kFlatten,
  kReLU,         // standalone ReLU (left behind by a removed/bypassed conv)
  kPushSkip,     // save the current tensor (entering a residual block)
  kSkipGemm,     // layers[op.layer] applied to the saved skip (downsample)
  kAddSkipRelu,  // current += saved skip; eqn-5 mask; ReLU
  kQuantize,     // current = fake_quantize(current, skip_bits) — a
                 // standalone quantizer no pass could fuse
  kQuantizeSkip, // saved skip = fake_quantize(saved skip, skip_bits) — the
                 // Fig-2 skip quantizer (skip activations use the
                 // destination conv2's precision), run right after the
                 // push into its own slot
};

struct OpPlan {
  OpKind kind = OpKind::kGemm;
  int layer = -1;                  // kGemm / kSkipGemm
  int skip_bits = 0;               // kQuantize / kQuantizeSkip grid
  std::int64_t pool_kernel = 2, pool_stride = 2;  // kMaxPool
  std::int64_t mask_channels = -1; // kAddSkipRelu (-1 = no mask)
  /// Arena byte offset (per sample, 64-aligned; scaled by the batch size at
  /// run time) where this op writes its output. -1 means the op has no slot
  /// of its own: it executes in place over its input's slot (ReLU/quantize/
  /// residual add), is a pure view (flatten), or aliases the fork (push).
  std::int64_t out_offset = -1;
  /// Activation-storage compression: when > 0, the op's output
  /// lands in its slot as packed `out_act_bits`-bit quantize codes
  /// (cell width in {1, 2, 4, 8}) instead of float words, and out_offset
  /// must name a real slot (packed ops never run in place). 0 = plain
  /// float storage.
  int out_act_bits = 0;
  /// Grid of the stored codes: the common bit-width of every consuming
  /// integer GEMM (the consumer then skips its own quantize_act and reads
  /// the codes directly). 0 with out_act_bits > 0 marks a kQuantizeSkip
  /// that codes on its OWN grid (skip_bits); the add dequantizes it.
  int out_act_qbits = 0;
};

/// Batch-agnostic shape of the value a plan's input op consumes — the
/// anchor the memory plan was computed against (rank 0 only on a plan
/// that was never memory-planned, which the engine refuses).
struct PlannedInput {
  int rank = 0;  // 3 = [C, H, W] feature maps, 1 = [C] features
  std::int64_t channels = 0, height = 0, width = 0;
};

/// Per-op activation traffic of one forward pass — what the paper's
/// E_Mem|k term charges. Integer-path GEMMs read their input as k-bit
/// codes packed one per byte (in_bytes = in_elems); float-path ops move
/// 32-bit words. Outputs are always float words.
struct OpActivation {
  std::string name;   // layer name, or the op kind for non-GEMM steps
  int bits = 32;      // grid the input activations are read at
  bool integer_path = false;
  std::int64_t in_elems = 0, out_elems = 0;
  std::int64_t in_bytes = 0, out_bytes = 0;
};

struct ActivationReport {
  std::int64_t arena_bytes = 0;   // per-sample planned arena footprint
  std::int64_t peak_bytes = 0;    // arena_bytes scaled by the batch
  std::int64_t total_bytes = 0;   // summed per-op traffic (batch-scaled)
  std::vector<OpActivation> ops;  // batch-scaled, one entry per op
};

struct InferencePlan {
  std::string model_name;
  std::vector<GemmLayerPlan> layers;
  std::vector<OpPlan> ops;

  /// Per-sample activation arena footprint in bytes (the static memory
  /// planner's exact peak). Always > 0 on an executable plan.
  std::int64_t arena_bytes = 0;

  /// The float-storage baseline footprint: what arena_bytes would have
  /// been with activation compression off. Equals arena_bytes when the
  /// plan has no packed slots.
  std::int64_t arena_bytes_u8 = 0;

  /// Input value shape the memory plan (and traffic report) assume.
  PlannedInput planned_input;

  /// Total resident weight bytes across all compiled layers.
  std::size_t weight_bytes() const;

  /// Number of layers on the integer path.
  int integer_layer_count() const;

  /// Exact peak activation bytes of a batch-`batch` forward on the arena
  /// executor (arena_bytes scales linearly with the batch).
  std::int64_t peak_activation_bytes(std::int64_t batch) const {
    return arena_bytes * batch;
  }

  /// Per-sample output element count of every op, in op order, simulated
  /// from planned_input — the shape walk the executor performs. Throws
  /// std::logic_error when the plan has no planned input.
  std::vector<std::int64_t> op_out_elems() const;

  /// Per-layer activation traffic + peak footprint at the given batch
  /// size. Throws std::logic_error when the plan has no planned input.
  ActivationReport activation_report(std::int64_t batch = 1) const;

  /// Histogram of activation storage across slot-owning ops, indexed by
  /// cell width: counts[0] = float slots, counts[k] = slots packed at
  /// k-bit cells (k in {1, 2, 4, 8}). Flatten/in-place ops (no slot of
  /// their own) do not count.
  std::array<int, 9> act_cell_histogram() const;
};

/// Compiles a single conv (+ optional BatchNorm fold + fused ReLU). Exposed
/// for layer-level parity tests; lowering uses it for every conv node.
GemmLayerPlan plan_conv(nn::Conv2d& conv, nn::BatchNorm2d* bn,
                        bool fuse_relu, const CompileOptions& opts = {});

/// Compiles a single depthwise conv (+ optional BatchNorm fold + fused
/// ReLU).
GemmLayerPlan plan_depthwise(nn::DepthwiseConv2d& conv, nn::BatchNorm2d* bn,
                             bool fuse_relu, const CompileOptions& opts = {});

/// Compiles a single linear layer (+ fused ReLU).
GemmLayerPlan plan_linear(nn::Linear& linear, bool fuse_relu,
                          const CompileOptions& opts = {});

/// Emits the plan for an already-legalized, memory-planned graph (see
/// graph/passes.h). Throws std::logic_error when graph::plan_memory has not
/// run, and std::invalid_argument when the graph contains structures the
/// engine's stack machine cannot execute (an unfused BatchNorm, a residual
/// add without a fused ReLU, a skip branch deeper than quantize + one
/// conv).
InferencePlan lower_to_plan(const graph::Graph& g,
                            const CompileOptions& opts = {});

/// build_from_model + legalize + lower_to_plan in one call: compiles the
/// trained model (plain chains, VGG pool/flatten bodies, ResNet residual
/// blocks, depthwise-separable stacks) into the full plan.
InferencePlan compile(models::QuantizableModel& model,
                      const CompileOptions& opts = {});

}  // namespace adq::infer
