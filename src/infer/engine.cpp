#include "infer/engine.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

#include "backend/registry.h"
#include "tensor/bitpack.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/ops.h"
#include "tensor/parallel.h"

namespace adq::infer {
namespace {

using backend::ActQuant;

// A value flowing through the slot-based executor: where its bytes live
// (the caller's input tensor or an arena slot) and their logical shape.
// `off` is the per-sample arena byte offset, -1 for caller-owned memory.
// When `packed`, the slot holds the whole batch's quantize codes bit-packed
// at `cell`-bit cells instead of float words (`p` is then null): `aq` is
// the grid the codes live on and `qbits` its bit-width — the grid every
// consuming integer GEMM runs on (0: a self-coded skip value the residual
// add dequantizes).
struct View {
  const float* p = nullptr;
  std::int64_t off = -1;
  Shape shape;
  bool packed = false;
  int cell = 0;
  int qbits = 0;
  ActQuant aq;

  View() = default;
  View(const float* p_in, std::int64_t off_in, Shape shape_in)
      : p(p_in), off(off_in), shape(std::move(shape_in)) {}
};

// Per-thread reusable scratch. Every buffer grows on demand and is reused
// across forward() calls, so a warm serving loop performs no allocations on
// the hot path; distinct threads get distinct scratch, which is what makes
// a shared engine safe under the server's worker pool.
struct EngineScratch {
  std::vector<std::uint8_t> act_codes;  // whole-batch activation codes
  std::vector<std::uint8_t> act_t;      // packed-linear activation transpose
  std::vector<std::uint8_t> act_unpacked;  // codes expanded from a packed slot
  std::vector<float> stage;             // packed-producer float staging
  Im2colWorkspace lower;                // u8 / float patch-matrix slabs
  std::vector<std::int32_t> acc;        // GEMM accumulators
  std::vector<std::int32_t> row_sums;   // per-sample code sums (linear)
  std::vector<float> raw;               // float-path GEMM output
  std::vector<float> fq;                // float-path fake-quantized input
  std::vector<float> arena;             // the slot executor's activations
  std::vector<View> skip_views;         // arena-path skip stack

  std::int32_t* ensure_acc(std::int64_t n) {
    if (static_cast<std::int64_t>(acc.size()) < n) {
      acc.resize(static_cast<std::size_t>(n));
    }
    return acc.data();
  }
  float* ensure_raw(std::int64_t n) {
    if (static_cast<std::int64_t>(raw.size()) < n) {
      raw.resize(static_cast<std::size_t>(n));
    }
    return raw.data();
  }
  float* ensure_fq(std::int64_t n) {
    if (static_cast<std::int64_t>(fq.size()) < n) {
      fq.resize(static_cast<std::size_t>(n));
    }
    return fq.data();
  }
  float* ensure_arena(std::int64_t n) {
    if (static_cast<std::int64_t>(arena.size()) < n) {
      arena.resize(static_cast<std::size_t>(n));
    }
    return arena.data();
  }
  std::uint8_t* ensure_act_t(std::int64_t n) {
    if (static_cast<std::int64_t>(act_t.size()) < n) {
      act_t.resize(static_cast<std::size_t>(n));
    }
    return act_t.data();
  }
  std::uint8_t* ensure_act_unpacked(std::int64_t n) {
    if (static_cast<std::int64_t>(act_unpacked.size()) < n) {
      act_unpacked.resize(static_cast<std::size_t>(n));
    }
    return act_unpacked.data();
  }
  float* ensure_stage(std::int64_t n) {
    if (static_cast<std::int64_t>(stage.size()) < n) {
      stage.resize(static_cast<std::size_t>(n));
    }
    return stage.data();
  }
};

EngineScratch& engine_scratch() {
  thread_local EngineScratch scratch;
  return scratch;
}

// One policy for how an integer layer's weights reach the GEMM — shared
// by the engine's construction-time cache and run_gemm_layer's standalone
// path, so the two can never diverge. <= 4-bit convs and linears keep
// packed weight cells end to end:
//   * packed convs repack the plan's flat codes into [O+1] byte-aligned
//     rows — the all-ones zero-point row is packed too — consumed by the
//     backend's igemm_u8w4/igemm_u8w2 kernels (nibbles expand in-register,
//     never into a byte-per-code buffer);
//   * packed linears repack the plan's [in, out] transpose into [out]
//     packed fan-in rows: the weights become the packed GEMM's A operand
//     against transposed activation codes (see run_linear_int);
//   * 1-bit cells widen to 2-bit rows (the narrowest packed kernel).
// Byte-per-code views (8-bit layers and depthwise convs):
//   * 8-bit integer convs materialise a [O+1, P] buffer whose last row is
//     all-ones (the GEMM then emits the per-column activation code sums as
//     its final accumulator row — see run_conv_int);
//   * sub-byte depthwise convs materialise their unpacked codes (no ones
//     row — the depthwise loop sums its own activation patches);
//   * 8-bit integer linears/depthwise read the plan's codes in place;
//   * float layers have no byte-code view at all.
ExecWeights build_exec_weights(const GemmLayerPlan& l) {
  ExecWeights w;
  if (l.path != ExecPath::kInteger) return w;
  if (l.cell_bits <= 4 && !l.is_depthwise) {
    w.packed = true;
    w.cell = std::max(l.cell_bits, 2);
    const std::int64_t O = l.out_channels;
    if (l.is_conv) {
      const std::int64_t P = l.patch();
      w.row_bytes = packed_row_bytes(P, w.cell);
      w.buf.resize(static_cast<std::size_t>((O + 1) * w.row_bytes));
      repack_rows_aligned(l.weight_codes.data(), O, P, l.cell_bits, w.cell,
                          w.buf.data());
      const std::vector<std::uint8_t> ones(static_cast<std::size_t>(P), 1);
      pack_codes(ones.data(), P, w.cell, w.buf.data() + O * w.row_bytes);
    } else {
      const std::int64_t in = l.in_channels;
      w.row_bytes = packed_row_bytes(in, w.cell);
      w.buf.resize(static_cast<std::size_t>(O * w.row_bytes));
      repack_transpose_aligned(l.weight_codes.data(), in, O, l.cell_bits,
                               w.cell, w.buf.data());
    }
    return w;
  }
  const std::int64_t count = l.out_channels * l.patch();
  if (l.is_depthwise) {
    if (l.cell_bits != 8) {
      w.buf.resize(static_cast<std::size_t>(count));
      backend::active().unpack_codes(l.weight_codes.data(), count,
                                     l.cell_bits, w.buf.data());
    }
  } else if (l.is_conv) {
    w.buf.assign(l.weight_codes.begin(), l.weight_codes.end());
    w.buf.resize(static_cast<std::size_t>(count + l.patch()), 1);
  }
  return w;
}

// The pointer-level view run_layer dispatches on: packed rows carry their
// cell width and byte stride; other views are plain byte-per-code.
struct WeightView {
  const std::uint8_t* p = nullptr;
  bool packed = false;
  int cell = 8;
  std::int64_t row_bytes = 0;
};

WeightView exec_weight_view(const GemmLayerPlan& l, const ExecWeights& w) {
  WeightView v;
  if (l.path != ExecPath::kInteger) return v;
  if (w.packed) {
    v.p = w.buf.data();
    v.packed = true;
    v.cell = w.cell;
    v.row_bytes = w.row_bytes;
  } else {
    v.p = w.buf.empty() ? l.weight_codes.data() : w.buf.data();
  }
  return v;
}

// Quantizes an activation tensor to eqn-1 codes through the active
// backend's quantize_act op (the observation FakeQuantizer::apply makes on
// this tensor in the training path, so code -> value round-trips land on
// the same grid). Codes land in `codes` (grown on demand, first `n` valid).
ActQuant quantize_activations(const float* px0, std::int64_t n, int bits,
                              std::vector<std::uint8_t>& codes) {
  if (static_cast<std::int64_t>(codes.size()) < n) {
    codes.resize(static_cast<std::size_t>(n));
  }
  return backend::active().quantize_act(px0, n, bits, codes.data());
}

// An integer layer's input when the producer already stored it as quantize
// codes (a compressed arena slot): the whole-batch codes plus the grid they
// live on. The layer then skips its own quantize_act — the codes were
// produced by the identical quantize_act call on the identical float
// values, so consuming them is bit-exact against quantizing here.
struct PackedActs {
  const std::uint8_t* codes = nullptr;
  ActQuant aq;
};

// Fused epilogue over one output row (channel o, `n` positions):
//   y = epi_scale[o] * (ss * acc + row_term + ca * colsum) + epi_shift[o]
// with the optional ReLU. `colsum` may be null when ca == 0. The plan-level
// channel masking (eqn 5's inactive channels) stays here; the backend op is
// the pure row math.
void epilogue_row(const GemmLayerPlan& l, std::int64_t o,
                  const std::int32_t* acc, const std::int32_t* colsum,
                  float ss, float row_term, float ca, std::int64_t n,
                  float* out) {
  if (o >= l.active_out) {
    std::fill(out, out + n, 0.0f);
    return;
  }
  backend::active().epilogue_row(acc, colsum, ss, row_term, ca,
                                 l.epi_scale[static_cast<std::size_t>(o)],
                                 l.epi_shift[static_cast<std::size_t>(o)],
                                 l.relu, n, out);
}

ConvGeometry conv_geometry(const GemmLayerPlan& l, std::int64_t h,
                           std::int64_t w) {
  ConvGeometry g;
  g.channels = l.in_channels;
  g.in_h = h;
  g.in_w = w;
  g.kernel_h = l.kernel;
  g.kernel_w = l.kernel;
  g.stride = l.stride;
  g.pad = l.pad;
  return g;
}

// The float-path layers consume the fake-quantized input the training
// graph would have seen. Snapped into per-thread scratch so neither
// execution path allocates for it.
const float* float_path_input(const GemmLayerPlan& l, const float* x,
                              std::int64_t n, EngineScratch& ws) {
  if (!l.quantize_input) return x;
  float* fq = ws.ensure_fq(n);
  backend::active().fake_quant(x, n, l.bits, fq);
  return fq;
}

// ---------------------------------------------------------------------------
// Layer kernels. Every kernel takes its input as a raw view and a
// caller-provided output buffer: the arena executor points them at
// compile-time-planned slots, run_gemm_layer at a freshly allocated tensor.
// ---------------------------------------------------------------------------

// Integer conv over the whole batch: each chunk of images lowers into
// adjacent column blocks of ONE [P, chunk*ohw] slab and runs as a single
// GEMM. Weight panels therefore pack once per chunk instead of once per
// image, and deep layers with tiny spatial outputs (ohw of 4 or 16) fill
// complete 16-wide micro-tiles — this is where batched serving beats
// request-at-a-time execution even on one core.
//
// `wv` is the [O+1, P] execution view of the weights (byte-per-code or
// packed cells, see build_exec_weights): rows 0..O-1 are the weight rows,
// row O is all-ones, so GEMM row O comes out as the per-column activation
// code sum the zero-point correction needs — computed at full kernel speed
// instead of a separate scalar pass over the slab.
void run_conv_int(const GemmLayerPlan& l, const float* x, std::int64_t B,
                  std::int64_t H, std::int64_t W, const WeightView& wv,
                  const PackedActs* pin, float* out) {
  const ConvGeometry g = conv_geometry(l, H, W);
  const std::int64_t oh = g.out_h(), ow = g.out_w(), ohw = oh * ow;
  const std::int64_t O = l.out_channels, P = l.patch();
  const std::int64_t chw = l.in_channels * H * W;

  const backend::Backend& bk = backend::active();
  EngineScratch& ws = engine_scratch();
  const ActQuant qa =
      pin != nullptr ? pin->aq
                     : quantize_activations(x, B * chw, l.bits, ws.act_codes);
  const std::uint8_t* act =
      pin != nullptr ? pin->codes : ws.act_codes.data();

  // Affine-correction constants (see plan.h): per-row term uses the weight
  // code sums, per-column term the activation column sums.
  const float ss = qa.a_scale * l.w_scale;
  const float cw = qa.a_min * l.w_scale;   // * w_code_sums[o]
  const float ca = l.w_min * qa.a_scale;   // * colsum[s]
  const float cc = static_cast<float>(P) * qa.a_min * l.w_min;

  const std::int64_t max_chunk = std::max<std::int64_t>(
      1, kMaxSlabBytes / std::max<std::int64_t>(1, P * ohw));
  for (std::int64_t b0 = 0; b0 < B; b0 += max_chunk) {
    const std::int64_t bc = std::min(max_chunk, B - b0);
    const std::int64_t cols = bc * ohw;
    std::uint8_t* col = ws.lower.ensure_u8(P * cols);
    // One sample lowers P*ohw bytes; keep at least ~16 KiB of lowering per
    // chunk so late tiny layers (small spatial maps) stay serial instead of
    // round-tripping the scheduler for microseconds of work.
    const std::int64_t im2col_grain = std::max<std::int64_t>(
        1, 16384 / std::max<std::int64_t>(1, P * ohw));
    parallel_for(0, bc, [&](std::int64_t i0, std::int64_t i1) {
      for (std::int64_t i = i0; i < i1; ++i) {
        bk.im2col_u8(act + (b0 + i) * chw, g, col + i * ohw, cols,
                     qa.zero_code);
      }
    }, im2col_grain);
    std::int32_t* acc = ws.ensure_acc((O + 1) * cols);
    if (wv.packed) {
      // Packed weight rows (the all-ones row included) feed the sub-byte
      // kernel directly; it is bit-exact against the unpacked GEMM, so the
      // epilogue below is untouched.
      const auto packed_fn = wv.cell == 4 ? bk.igemm_w4 : bk.igemm_w2;
      packed_fn(O + 1, cols, P, wv.p, wv.row_bytes, col, cols, acc, cols);
    } else {
      bk.igemm(O + 1, cols, P, wv.p, P, col, cols, acc, cols);
    }
    const std::int32_t* colsum = acc + O * cols;  // the all-ones weight row
    // Fused epilogue, channel-parallel, scattering chunk columns back into
    // the [B, O, oh, ow] layout. Grain keeps tiny layers serial.
    const std::int64_t grain =
        std::max<std::int64_t>(1, 16384 / std::max<std::int64_t>(1, cols));
    parallel_for(0, O, [&](std::int64_t o0, std::int64_t o1) {
      for (std::int64_t o = o0; o < o1; ++o) {
        const float row_term =
            cw * static_cast<float>(
                     l.w_code_sums[static_cast<std::size_t>(o)]) +
            cc;
        for (std::int64_t i = 0; i < bc; ++i) {
          epilogue_row(l, o, acc + o * cols + i * ohw, colsum + i * ohw, ss,
                       row_term, ca, ohw, out + ((b0 + i) * O + o) * ohw);
        }
      }
    }, grain);
  }
}

void run_conv_float(const GemmLayerPlan& l, const float* x, std::int64_t B,
                    std::int64_t H, std::int64_t W, float* out) {
  const ConvGeometry g = conv_geometry(l, H, W);
  const std::int64_t oh = g.out_h(), ow = g.out_w(), ohw = oh * ow;
  const std::int64_t O = l.out_channels, P = l.patch();
  const std::int64_t chw = l.in_channels * H * W;

  const float* xq = float_path_input(l, x, B * chw, engine_scratch());
  parallel_for(0, B, [&](std::int64_t b0, std::int64_t b1) {
    EngineScratch& tws = engine_scratch();
    float* col = tws.lower.ensure_f32(P * ohw);
    float* raw = tws.ensure_raw(O * ohw);
    for (std::int64_t b = b0; b < b1; ++b) {
      backend::active().im2col_f32(xq + b * chw, g, col, ohw);
      sgemm(false, false, O, ohw, P, 1.0f, l.weight_f.data(), P, col, ohw,
            0.0f, raw, ohw);
      float* out_b = out + b * O * ohw;
      for (std::int64_t o = 0; o < O; ++o) {
        const float ea = l.epi_scale[static_cast<std::size_t>(o)];
        const float eb = l.epi_shift[static_cast<std::size_t>(o)];
        float* dst = out_b + o * ohw;
        if (o >= l.active_out) {
          std::fill(dst, dst + ohw, 0.0f);
          continue;
        }
        const float* src = raw + o * ohw;
        for (std::int64_t s = 0; s < ohw; ++s) {
          const float v = ea * src[s] + eb;
          dst[s] = l.relu ? std::max(v, 0.0f) : v;
        }
      }
    }
  });
}

// Translates a depthwise layer plan into the backend op's argument block.
// The plan-derived epilogue/mask state is shared by both precisions; the
// integer zero-point constants are filled by the int wrapper below.
backend::DepthwiseArgs depthwise_args(const GemmLayerPlan& l, std::int64_t H,
                                      std::int64_t W) {
  backend::DepthwiseArgs a;
  a.channels = l.out_channels;
  a.in_h = H;
  a.in_w = W;
  a.kernel = l.kernel;
  a.stride = l.stride;
  a.pad = l.pad;
  a.active_channels = l.active_out;
  a.epi_scale = l.epi_scale.data();
  a.epi_shift = l.epi_shift.data();
  a.relu = l.relu;
  return a;
}

// Integer depthwise conv: each output channel reduces only its own input
// plane over kernel^2 taps, so there is no GEMM to amortise — the backend
// op loops directly over the quantized codes with the same per-channel
// zero-point correction as the GEMM path (plan.h, K = kernel^2). Padding
// taps use the grid code closest to 0.0, exactly like im2col_u8's padding.
void run_depthwise_int(const GemmLayerPlan& l, const float* x, std::int64_t B,
                       std::int64_t H, std::int64_t W, const WeightView& wv,
                       const PackedActs* pin, float* out) {
  const std::int64_t C = l.out_channels;
  const std::int64_t k = l.kernel;

  const backend::Backend& bk = backend::active();
  EngineScratch& ws = engine_scratch();
  const ActQuant qa =
      pin != nullptr
          ? pin->aq
          : quantize_activations(x, B * C * H * W, l.bits, ws.act_codes);
  const std::uint8_t* act =
      pin != nullptr ? pin->codes : ws.act_codes.data();

  backend::DepthwiseArgs a = depthwise_args(l, H, W);
  a.w_code_sums = l.w_code_sums.data();
  a.ss = qa.a_scale * l.w_scale;
  a.cw = qa.a_min * l.w_scale;  // * w_code_sums[c]
  a.ca = l.w_min * qa.a_scale;  // * patch activation-code sum
  a.cc = static_cast<float>(k * k) * qa.a_min * l.w_min;
  a.zero_code = qa.zero_code;
  bk.depthwise_int(act, B, wv.p, a, out);
}

void run_depthwise_float(const GemmLayerPlan& l, const float* x,
                         std::int64_t B, std::int64_t H, std::int64_t W,
                         float* out) {
  const float* xq =
      float_path_input(l, x, B * l.out_channels * H * W, engine_scratch());
  backend::active().depthwise_f32(xq, B, l.weight_f.data(),
                                  depthwise_args(l, H, W), out);
}

void run_linear_int(const GemmLayerPlan& l, const float* x, std::int64_t B,
                    const WeightView& wv, const PackedActs* pin, float* out) {
  const std::int64_t in = l.in_channels, O = l.out_channels;

  EngineScratch& ws = engine_scratch();
  const ActQuant qa =
      pin != nullptr ? pin->aq
                     : quantize_activations(x, B * in, l.bits, ws.act_codes);
  const std::uint8_t* act_in =
      pin != nullptr ? pin->codes : ws.act_codes.data();

  if (static_cast<std::int64_t>(ws.row_sums.size()) < B) {
    ws.row_sums.resize(static_cast<std::size_t>(B));
  }
  for (std::int64_t b = 0; b < B; ++b) {
    std::int32_t s = 0;
    const std::uint8_t* row = act_in + b * in;
    for (std::int64_t i = 0; i < in; ++i) s += row[i];
    ws.row_sums[static_cast<std::size_t>(b)] = s;
  }

  std::int32_t* acc = ws.ensure_acc(B * O);
  if (wv.packed) {
    // The packed kernels take the packed operand as A, so the roles flip:
    // packed weight rows [O, in] against transposed activation codes
    // [in, B], landing acc in [O, B]. Integer dot products are exact, so
    // acc[o * B + b] equals the unpacked path's acc[b * O + o] bit for bit
    // and the epilogue below evaluates the same float expression either
    // way.
    std::uint8_t* act_t = ws.ensure_act_t(in * B);
    for (std::int64_t b = 0; b < B; ++b) {
      for (std::int64_t i = 0; i < in; ++i) {
        act_t[i * B + b] = act_in[b * in + i];
      }
    }
    const backend::Backend& bk = backend::active();
    const auto packed_fn = wv.cell == 4 ? bk.igemm_w4 : bk.igemm_w2;
    packed_fn(O, B, in, wv.p, wv.row_bytes, act_t, B, acc, B);
  } else {
    backend::active().igemm(B, O, in, act_in, in, wv.p, O, acc, O);
  }
  const std::int64_t o_stride = wv.packed ? B : 1;
  const std::int64_t b_stride = wv.packed ? 1 : O;

  const float ss = qa.a_scale * l.w_scale;
  const float cw = qa.a_min * l.w_scale;   // * w_code_sums[o]
  const float ca = l.w_min * qa.a_scale;   // * row_sums[b]
  const float cc = static_cast<float>(in) * qa.a_min * l.w_min;

  for (std::int64_t b = 0; b < B; ++b) {
    const std::int32_t* ab = acc + b * b_stride;
    float* ob = out + b * O;
    const float sample_term =
        ca * static_cast<float>(ws.row_sums[static_cast<std::size_t>(b)]) + cc;
    for (std::int64_t o = 0; o < O; ++o) {
      if (o >= l.active_out) {
        ob[o] = 0.0f;
        continue;
      }
      const float v =
          l.epi_scale[static_cast<std::size_t>(o)] *
              (ss * static_cast<float>(ab[o * o_stride]) +
               cw * static_cast<float>(l.w_code_sums[static_cast<std::size_t>(o)]) +
               sample_term) +
          l.epi_shift[static_cast<std::size_t>(o)];
      ob[o] = l.relu ? std::max(v, 0.0f) : v;
    }
  }
}

void run_linear_float(const GemmLayerPlan& l, const float* x, std::int64_t B,
                      float* out) {
  const std::int64_t in = l.in_channels, O = l.out_channels;
  const float* xq = float_path_input(l, x, B * in, engine_scratch());
  // y[B, O] = x_q * W^T, like nn::Linear::forward.
  sgemm(false, true, B, O, in, 1.0f, xq, in, l.weight_f.data(), in, 0.0f,
        out, O);
  for (std::int64_t b = 0; b < B; ++b) {
    float* ob = out + b * O;
    for (std::int64_t o = 0; o < O; ++o) {
      if (o >= l.active_out) {
        ob[o] = 0.0f;
        continue;
      }
      const float v = l.epi_scale[static_cast<std::size_t>(o)] * ob[o] +
                      l.epi_shift[static_cast<std::size_t>(o)];
      ob[o] = l.relu ? std::max(v, 0.0f) : v;
    }
  }
}

void check_layer_input(const GemmLayerPlan& layer, const Shape& shape) {
  if (layer.is_conv) {
    if (shape.rank() != 4 || shape.dim(1) != layer.in_channels) {
      throw std::invalid_argument("infer: " + layer.name + " expected [B, " +
                                  std::to_string(layer.in_channels) +
                                  ", H, W], got " + shape.to_string());
    }
    return;
  }
  if (shape.rank() != 2 || shape.dim(1) != layer.in_channels) {
    throw std::invalid_argument("infer: " + layer.name + " expected [B, " +
                                std::to_string(layer.in_channels) + "], got " +
                                shape.to_string());
  }
}

Shape layer_out_shape(const GemmLayerPlan& l, const Shape& in) {
  if (!l.is_conv) return Shape{in.dim(0), l.out_channels};
  return Shape{in.dim(0), l.out_channels, l.out_extent(in.dim(2)),
               l.out_extent(in.dim(3))};
}

// Shared layer dispatch. `wv` is the weight execution view for integer
// layers (ignored on the float path). `pin`, when non-null, supplies the
// input as already-quantized codes (a compressed arena slot) — integer
// path only, `x` may then be null. The input must already have passed
// check_layer_input; `out` must hold layer_out_shape(...).numel() floats.
void run_layer(const GemmLayerPlan& layer, const float* x, const Shape& shape,
               const WeightView& wv, const PackedActs* pin, float* out) {
  if (pin != nullptr && layer.path != ExecPath::kInteger) {
    throw std::logic_error("infer: " + layer.name +
                           " consumes packed activations on the float path");
  }
  const std::int64_t B = shape.dim(0);
  if (layer.is_conv) {
    const std::int64_t H = shape.dim(2), W = shape.dim(3);
    if (layer.is_depthwise) {
      if (layer.path == ExecPath::kInteger) {
        run_depthwise_int(layer, x, B, H, W, wv, pin, out);
      } else {
        run_depthwise_float(layer, x, B, H, W, out);
      }
      return;
    }
    if (layer.path == ExecPath::kInteger) {
      run_conv_int(layer, x, B, H, W, wv, pin, out);
    } else {
      run_conv_float(layer, x, B, H, W, out);
    }
    return;
  }
  if (layer.path == ExecPath::kInteger) {
    run_linear_int(layer, x, B, wv, pin, out);
  } else {
    run_linear_float(layer, x, B, out);
  }
}

// Inference-only max pool (nn::MaxPool2d caches backward state; the engine
// needs a stateless pass).
void maxpool_forward(const float* x, std::int64_t B, std::int64_t C,
                     std::int64_t H, std::int64_t W, std::int64_t kernel,
                     std::int64_t stride, float* out) {
  const std::int64_t oh = (H - kernel) / stride + 1;
  const std::int64_t ow = (W - kernel) / stride + 1;
  // A plane costs oh*ow*kernel^2 compares; keep ~4k compares per chunk so
  // the deep small-map pools don't pay a dispatch for trivial work.
  const std::int64_t grain = std::max<std::int64_t>(
      1, 4096 / std::max<std::int64_t>(1, oh * ow * kernel * kernel));
  parallel_for(0, B * C, [&](std::int64_t p0, std::int64_t p1) {
    for (std::int64_t p = p0; p < p1; ++p) {
      const float* plane = x + p * H * W;
      float* dst = out + p * oh * ow;
      for (std::int64_t y = 0; y < oh; ++y) {
        for (std::int64_t xo = 0; xo < ow; ++xo) {
          float best = -std::numeric_limits<float>::infinity();
          for (std::int64_t ky = 0; ky < kernel; ++ky) {
            const float* row = plane + (y * stride + ky) * W + xo * stride;
            for (std::int64_t kx = 0; kx < kernel; ++kx) {
              best = std::max(best, row[kx]);
            }
          }
          dst[y * ow + xo] = best;
        }
      }
    }
  }, grain);
}

void gap_forward(const float* x, std::int64_t B, std::int64_t C,
                 std::int64_t hw, float* out) {
  for (std::int64_t p = 0; p < B * C; ++p) {
    const float* plane = x + p * hw;
    float s = 0.0f;
    for (std::int64_t i = 0; i < hw; ++i) s += plane[i];
    out[p] = s / static_cast<float>(hw);
  }
}

void check_add_shapes(const Shape& current, const Shape& skip) {
  if (current != skip) {
    throw std::invalid_argument("infer: residual add shape mismatch " +
                                current.to_string() + " vs " +
                                skip.to_string());
  }
}

// One-time validation of a loaded/compiled memory plan: replays the op
// walk over a 64-byte-granule stamp map, proving that every slot lies
// inside the arena, no op's output overlaps an operand it is still
// reading (in-place ops excepted — their reads and writes are
// index-aligned), and no op overwrites bytes a later op still consumes.
// A plan without a memory plan cannot execute at all.
// The checksum only proves a file arrived as written, not that its
// writer's planner was correct; without this check a hand-edited plan
// could silently compute wrong logits.
void validate_memory_plan(const InferencePlan& plan) {
  if (plan.arena_bytes <= 0) {
    throw std::runtime_error("infer: plan '" + plan.model_name +
                             "' has no memory plan (arena bytes " +
                             std::to_string(plan.arena_bytes) + ")");
  }
  std::vector<std::int64_t> out_elems;
  try {
    out_elems = plan.op_out_elems();
  } catch (const std::logic_error& e) {
    throw std::runtime_error(e.what());
  }
  const auto fail = [&plan](std::size_t i, const std::string& why) {
    throw std::runtime_error("infer: plan '" + plan.model_name + "' op " +
                             std::to_string(i) + " " + why);
  };

  struct Val {
    int id = 0;          // 0 = the caller-owned input tensor
    std::int64_t off = -1, bytes = 0;
    int act_bits = 0;    // packed cell width (0 = float storage)
    int act_qbits = 0;   // grid of the stored codes
  };
  const std::int64_t granules = (plan.arena_bytes + 63) / 64;
  std::vector<int> stamp(static_cast<std::size_t>(granules), -1);
  const auto span = [](const Val& v) {
    return std::pair<std::int64_t, std::int64_t>{v.off / 64,
                                                 (v.off + v.bytes + 63) / 64};
  };
  const auto check_live = [&](const Val& v, std::size_t i) {
    if (v.off < 0) return;
    const auto [g0, g1] = span(v);
    for (std::int64_t g = g0; g < g1; ++g) {
      if (stamp[static_cast<std::size_t>(g)] != v.id) {
        fail(i, "reads a value whose arena slot was overwritten "
                "(inconsistent memory plan)");
      }
    }
  };
  int next_id = 1;
  // Writes value `id` into a fresh slot, checking bounds and that the
  // slot is disjoint from every operand the op reads while writing.
  const auto write_slot = [&](Val& v, std::int64_t off, std::int64_t bytes,
                              std::initializer_list<const Val*> reads,
                              std::size_t i) {
    if (off < 0) fail(i, "is missing its arena slot");
    if (off % 64 != 0 || off + bytes > plan.arena_bytes) {
      fail(i, "has an arena slot outside the planned footprint");
    }
    const std::int64_t g0 = off / 64, g1 = (off + bytes + 63) / 64;
    for (const Val* r : reads) {
      if (r->off < 0) continue;
      const auto [r0, r1] = span(*r);
      if (g0 < r1 && r0 < g1) {
        fail(i, "writes its output over an operand it is still reading");
      }
    }
    v = Val{next_id++, off, bytes};
    for (std::int64_t g = g0; g < g1; ++g) {
      stamp[static_cast<std::size_t>(g)] = v.id;
    }
  };
  // In-place rewrite of v's own slot: the old value dies, a new one takes
  // over the same bytes.
  const auto rewrite_inplace = [&](Val& v, std::int64_t bytes,
                                   std::size_t i) {
    if (v.off < 0) fail(i, "executes in place over the caller-owned input");
    v.bytes = bytes;
    v.id = next_id++;
    const auto [g0, g1] = span(v);
    for (std::int64_t g = g0; g < g1; ++g) {
      stamp[static_cast<std::size_t>(g)] = v.id;
    }
  };

  // A packed value occupies packed_bytes of its slot, never runs in place,
  // and is only legible to an integer GEMM running on the very grid the
  // codes were produced for.
  const auto check_packed_op = [&](const OpPlan& op, std::size_t i) {
    if (op.out_act_bits <= 0) return;
    if (op.out_offset < 0) {
      fail(i, "stores packed activations but has no arena slot");
    }
    if (op.out_act_bits != 1 && op.out_act_bits != 2 &&
        op.out_act_bits != 4 && op.out_act_bits != 8) {
      fail(i, "stores packed activations at an invalid cell width");
    }
  };
  const auto stamp_act = [](Val& v, const OpPlan& op) {
    v.act_bits = op.out_act_bits;
    v.act_qbits = op.out_act_qbits;
  };
  const auto check_gemm_input = [&](const Val& v, const OpPlan& op,
                                    std::size_t i) {
    if (v.act_bits <= 0) return;
    const GemmLayerPlan& l = plan.layers[static_cast<std::size_t>(op.layer)];
    if (l.path != ExecPath::kInteger || v.act_qbits != l.bits) {
      fail(i, "consumes a packed value quantized on a grid the layer "
              "cannot read");
    }
  };
  const auto check_float_input = [&](const Val& v, std::size_t i) {
    if (v.act_bits > 0) fail(i, "reads a packed value as float words");
  };

  Val cur;  // the caller's input tensor
  std::vector<Val> skips;
  for (std::size_t i = 0; i < plan.ops.size(); ++i) {
    const OpPlan& op = plan.ops[i];
    check_packed_op(op, i);
    const std::int64_t bytes =
        op.out_act_bits > 0
            ? packed_bytes(out_elems[i], op.out_act_bits)
            : out_elems[i] * static_cast<std::int64_t>(sizeof(float));
    switch (op.kind) {
      case OpKind::kGemm:
        check_gemm_input(cur, op, i);
        check_live(cur, i);
        write_slot(cur, op.out_offset, bytes, {&cur}, i);
        stamp_act(cur, op);
        break;
      case OpKind::kMaxPool:
      case OpKind::kGlobalAvgPool:
        check_float_input(cur, i);
        check_live(cur, i);
        write_slot(cur, op.out_offset, bytes, {&cur}, i);
        stamp_act(cur, op);
        break;
      case OpKind::kFlatten:
        break;  // pure view
      case OpKind::kReLU:
      case OpKind::kQuantize:
        check_float_input(cur, i);
        check_live(cur, i);
        if (op.out_offset < 0) {
          rewrite_inplace(cur, bytes, i);
        } else {
          write_slot(cur, op.out_offset, bytes, {&cur}, i);
        }
        stamp_act(cur, op);
        break;
      case OpKind::kPushSkip:
        check_float_input(cur, i);
        check_live(cur, i);
        skips.push_back(cur);  // alias — shares the stamp
        break;
      case OpKind::kQuantizeSkip:
        check_float_input(skips.back(), i);
        check_live(skips.back(), i);
        write_slot(skips.back(), op.out_offset, bytes, {&skips.back()}, i);
        stamp_act(skips.back(), op);
        break;
      case OpKind::kSkipGemm:
        check_gemm_input(skips.back(), op, i);
        check_live(skips.back(), i);
        write_slot(skips.back(), op.out_offset, bytes, {&skips.back()}, i);
        stamp_act(skips.back(), op);
        break;
      case OpKind::kAddSkipRelu: {
        check_live(cur, i);
        check_live(skips.back(), i);
        const Val top = skips.back();
        skips.pop_back();
        if (cur.act_bits > 0) {
          fail(i, "adds onto a packed main operand");
        }
        if (top.act_bits > 0 && top.act_qbits != 0) {
          fail(i, "adds a packed skip that is not self-coded");
        }
        if (op.out_offset < 0) {
          rewrite_inplace(cur, bytes, i);
        } else {
          write_slot(cur, op.out_offset, bytes, {&cur, &top}, i);
        }
        stamp_act(cur, op);
        break;
      }
    }
  }
}

}  // namespace

Tensor run_gemm_layer(const GemmLayerPlan& layer, const Tensor& x) {
  // Standalone call without an engine: build the execution view per call
  // (the engine proper uses its construction-time cache).
  const ExecWeights w = build_exec_weights(layer);
  check_layer_input(layer, x.shape());
  Tensor out(layer_out_shape(layer, x.shape()));
  run_layer(layer, x.data(), x.shape(), exec_weight_view(layer, w),
            /*pin=*/nullptr, out.data());
  return out;
}

IntInferenceEngine::IntInferenceEngine(InferencePlan plan)
    : plan_(std::move(plan)) {
  // Resolve the backend now: an unknown or unavailable ADQ_BACKEND pin
  // must fail engine construction (listing the registered backends),
  // never silently fall back mid-forward.
  backend::active();
  validate_memory_plan(plan_);
  exec_weights_.resize(plan_.layers.size());
  for (std::size_t i = 0; i < plan_.layers.size(); ++i) {
    exec_weights_[i] = build_exec_weights(plan_.layers[i]);
  }
}

std::int64_t IntInferenceEngine::exec_weight_bytes() const {
  std::int64_t total = 0;
  for (std::size_t i = 0; i < plan_.layers.size(); ++i) {
    const GemmLayerPlan& l = plan_.layers[i];
    if (l.path != ExecPath::kInteger) {
      total += static_cast<std::int64_t>(l.weight_bytes());
      continue;
    }
    const std::vector<std::uint8_t>& buf = exec_weights_[i].buf;
    total += static_cast<std::int64_t>(buf.empty() ? l.weight_codes.size()
                                                   : buf.size());
  }
  return total;
}

bool IntInferenceEngine::uses_arena(const Tensor& x) const {
  const PlannedInput& in = plan_.planned_input;
  if (in.rank == 3) {
    return x.shape().rank() == 4 && x.shape().dim(1) == in.channels &&
           x.shape().dim(2) == in.height && x.shape().dim(3) == in.width;
  }
  return in.rank == 1 && x.shape().rank() == 2 &&
         x.shape().dim(1) == in.channels;
}

Tensor IntInferenceEngine::forward(const Tensor& x) const {
  Tensor out;
  forward_into(x, out);
  return out;
}

// The slot-based executor: one preallocated per-thread arena, every op
// writing into its planner-assigned slot (per-sample offsets scale by the
// batch size — 64-byte slot alignment keeps the scaled offsets aligned and
// float-indexable). In-place ops (out_offset < 0) snap or rectify their
// input's slot directly; flatten is a pure reinterpretation of the current
// view. Steady state performs zero heap allocations: the arena, code and
// slab buffers all grow once and are reused.
void IntInferenceEngine::forward_into(const Tensor& x, Tensor& out) const {
  if (!uses_arena(x)) {
    const PlannedInput& in = plan_.planned_input;
    const std::string planned =
        in.rank == 3 ? "[B, " + std::to_string(in.channels) + ", " +
                           std::to_string(in.height) + ", " +
                           std::to_string(in.width) + "]"
                     : "[B, " + std::to_string(in.channels) + "]";
    throw std::invalid_argument("infer: plan '" + plan_.model_name +
                                "' expects input " + planned + ", got " +
                                x.shape().to_string());
  }
  const std::int64_t B = x.shape().dim(0);
  EngineScratch& ws = engine_scratch();
  float* arena =
      ws.ensure_arena(plan_.arena_bytes / static_cast<std::int64_t>(sizeof(float)) * B);
  const auto slot = [&](std::int64_t off) {
    return arena + off / static_cast<std::int64_t>(sizeof(float)) * B;
  };
  const auto require_slot = [&](const OpPlan& op) {
    if (op.out_offset < 0) {
      throw std::logic_error("infer: op is missing its arena slot");
    }
    return slot(op.out_offset);
  };
  // Writable pointer for an in-place op: the planner never aliases the
  // caller-owned input tensor, so a view without a slot here is a plan bug.
  const auto inplace_ptr = [&](const View& v) {
    if (v.off < 0) {
      throw std::logic_error("infer: in-place op over caller-owned input");
    }
    return slot(v.off);
  };

  const auto weight_view = [this](int layer) {
    return exec_weight_view(plan_.layers[static_cast<std::size_t>(layer)],
                            exec_weights_[static_cast<std::size_t>(layer)]);
  };

  // Packed slots address the same arena as raw bytes: slots are 64-byte
  // aligned per sample, so off * B is exactly the byte address of
  // slot(off) and batch scaling preserves the alignment.
  const auto byte_slot = [&](std::int64_t off) {
    return reinterpret_cast<std::uint8_t*>(arena) + off * B;
  };
  // Quantizes a float value at `bits` and packs the codes into the op's
  // compressed slot. The whole batch packs contiguously — packed_bytes
  // grows sub-additively, so B samples always fit the B-scaled slot.
  const auto pack_result = [&](const OpPlan& op, const float* src,
                               const Shape& shape, int bits) {
    if (bits <= 0) {
      throw std::logic_error("infer: packed op without a quantization grid");
    }
    const std::int64_t n = shape.numel();
    View v;
    v.off = op.out_offset;
    v.shape = shape;
    v.packed = true;
    v.cell = op.out_act_bits;
    v.qbits = op.out_act_qbits;
    v.aq = quantize_activations(src, n, bits, ws.act_codes);
    backend::active().act_pack(ws.act_codes.data(), n, op.out_act_bits,
                               byte_slot(op.out_offset));
    return v;
  };
  // Expands a packed view back to one code per byte for its consumer.
  const auto unpack_codes_of = [&](const View& v) {
    const std::int64_t n = v.shape.numel();
    std::uint8_t* dst = ws.ensure_act_unpacked(n);
    backend::active().act_unpack(byte_slot(v.off), n, v.cell, dst);
    return static_cast<const std::uint8_t*>(dst);
  };
  // The planner only packs values whose every consumer can read codes; an
  // op that needs floats but sees a packed view is an inconsistent plan.
  const auto require_float = [](const View& v, const char* what) {
    if (v.packed) {
      throw std::logic_error(std::string("infer: ") + what +
                             " consumes a packed value (inconsistent plan)");
    }
  };
  // Shared GEMM-family step: a packed input feeds the kernel its stored
  // codes (bit-exact against re-quantizing — same floats, same grid); a
  // packed output stages in float scratch, then quantizes + packs into
  // the compressed slot.
  const auto run_gemm_op = [&](const OpPlan& op, View& v) {
    const GemmLayerPlan& l = plan_.layers[static_cast<std::size_t>(op.layer)];
    check_layer_input(l, v.shape);
    PackedActs pa;
    const PackedActs* pin = nullptr;
    if (v.packed) {
      pa.codes = unpack_codes_of(v);
      pa.aq = v.aq;
      pin = &pa;
    }
    const Shape out_shape = layer_out_shape(l, v.shape);
    if (op.out_act_bits > 0) {
      float* stg = ws.ensure_stage(out_shape.numel());
      run_layer(l, v.p, v.shape, weight_view(op.layer), pin, stg);
      v = pack_result(op, stg, out_shape, op.out_act_qbits);
    } else {
      float* dst = require_slot(op);
      run_layer(l, v.p, v.shape, weight_view(op.layer), pin, dst);
      v = View{dst, op.out_offset, out_shape};
    }
  };

  View cur{x.data(), -1, x.shape()};
  std::vector<View>& skips = ws.skip_views;
  skips.clear();
  for (const OpPlan& op : plan_.ops) {
    switch (op.kind) {
      case OpKind::kGemm:
        run_gemm_op(op, cur);
        break;
      case OpKind::kMaxPool: {
        require_float(cur, "maxpool");
        const std::int64_t C = cur.shape.dim(1), H = cur.shape.dim(2),
                           W = cur.shape.dim(3);
        const Shape os{B, C, (H - op.pool_kernel) / op.pool_stride + 1,
                       (W - op.pool_kernel) / op.pool_stride + 1};
        float* dst = op.out_act_bits > 0 ? ws.ensure_stage(os.numel())
                                         : require_slot(op);
        maxpool_forward(cur.p, B, C, H, W, op.pool_kernel, op.pool_stride,
                        dst);
        cur = op.out_act_bits > 0
                  ? pack_result(op, dst, os, op.out_act_qbits)
                  : View{dst, op.out_offset, os};
        break;
      }
      case OpKind::kGlobalAvgPool: {
        require_float(cur, "global average pool");
        const std::int64_t C = cur.shape.dim(1);
        const Shape os{B, C};
        float* dst = op.out_act_bits > 0 ? ws.ensure_stage(os.numel())
                                         : require_slot(op);
        gap_forward(cur.p, B, C, cur.shape.dim(2) * cur.shape.dim(3), dst);
        cur = op.out_act_bits > 0
                  ? pack_result(op, dst, os, op.out_act_qbits)
                  : View{dst, op.out_offset, os};
        break;
      }
      case OpKind::kFlatten:
        // Pure view — a packed value stays packed, the code count is the
        // same either way.
        cur.shape = Shape{B, cur.shape.numel() / B};
        break;
      case OpKind::kReLU: {
        require_float(cur, "relu");
        const std::int64_t n = cur.shape.numel();
        if (op.out_act_bits > 0) {
          float* stg = ws.ensure_stage(n);
          for (std::int64_t i = 0; i < n; ++i) {
            stg[i] = std::max(cur.p[i], 0.0f);
          }
          cur = pack_result(op, stg, cur.shape, op.out_act_qbits);
        } else if (op.out_offset < 0) {
          float* p = inplace_ptr(cur);
          for (std::int64_t i = 0; i < n; ++i) p[i] = std::max(p[i], 0.0f);
        } else {
          float* dst = require_slot(op);
          for (std::int64_t i = 0; i < n; ++i) {
            dst[i] = std::max(cur.p[i], 0.0f);
          }
          cur = View{dst, op.out_offset, cur.shape};
        }
        break;
      }
      case OpKind::kQuantize: {
        require_float(cur, "quantize");
        const std::int64_t n = cur.shape.numel();
        if (op.out_act_bits > 0) {
          if (op.out_act_qbits > 0) {
            // Snap on the op's own grid first, then code on the consumer
            // grid — two distinct grids in general.
            float* stg = ws.ensure_stage(n);
            backend::active().fake_quant(cur.p, n, op.skip_bits, stg);
            cur = pack_result(op, stg, cur.shape, op.out_act_qbits);
          } else {
            // Self-coded: quantize_act(x, k)'s codes exactly represent
            // fake_quantize(x, k) (same observed range, same rounding).
            cur = pack_result(op, cur.p, cur.shape, op.skip_bits);
          }
        } else if (op.out_offset < 0) {
          backend::active().fake_quant(cur.p, n, op.skip_bits, inplace_ptr(cur));
        } else {
          float* dst = require_slot(op);
          backend::active().fake_quant(cur.p, n, op.skip_bits, dst);
          cur = View{dst, op.out_offset, cur.shape};
        }
        break;
      }
      case OpKind::kPushSkip:
        require_float(cur, "push-skip");
        skips.push_back(cur);  // alias — the planner keeps the slot live
        break;
      case OpKind::kQuantizeSkip: {
        if (skips.empty()) {
          throw std::logic_error("infer: quantize-skip without a saved skip");
        }
        View& top = skips.back();
        require_float(top, "quantize-skip");
        const std::int64_t n = top.shape.numel();
        if (op.out_act_bits > 0) {
          if (op.out_act_qbits > 0) {
            // Downsample flavor: snap on the skip grid, then code on the
            // downsample conv's grid. A direct quantize is NOT exact here
            // even at equal bit-widths — the two grids' endpoints differ
            // in float.
            float* stg = ws.ensure_stage(n);
            backend::active().fake_quant(top.p, n, op.skip_bits, stg);
            top = pack_result(op, stg, top.shape, op.out_act_qbits);
          } else {
            // Identity flavor: self-coded at skip_bits; the residual add
            // dequantizes the codes back to the exact fake-quantized
            // floats.
            top = pack_result(op, top.p, top.shape, op.skip_bits);
          }
        } else {
          float* dst = require_slot(op);
          backend::active().fake_quant(top.p, n, op.skip_bits, dst);
          top = View{dst, op.out_offset, top.shape};
        }
        break;
      }
      case OpKind::kSkipGemm: {
        if (skips.empty()) {
          throw std::logic_error("infer: skip gemm without a saved skip");
        }
        run_gemm_op(op, skips.back());
        break;
      }
      case OpKind::kAddSkipRelu: {
        if (skips.empty()) {
          throw std::logic_error("infer: residual add without a saved skip");
        }
        const View top = skips.back();
        skips.pop_back();
        require_float(cur, "residual add (main operand)");
        check_add_shapes(cur.shape, top.shape);
        const std::int64_t n = cur.shape.numel();
        const std::int64_t C = cur.shape.dim(1);
        const std::int64_t hw = cur.shape.dim(2) * cur.shape.dim(3);
        const float* skip_p = top.p;
        if (top.packed) {
          // Self-coded skip value: expand + dequantize back to the exact
          // fake-quantized floats the float path would have stored. Raw
          // scratch, not stage — a packed add output needs stage below.
          float* sk = ws.ensure_raw(n);
          backend::active().dequantize(unpack_codes_of(top), n, top.aq, sk);
          skip_p = sk;
        }
        if (op.out_act_bits > 0) {
          float* stg = ws.ensure_stage(n);
          backend::active().residual_add(cur.p, skip_p, B, C, hw,
                                         op.mask_channels, stg);
          cur = pack_result(op, stg, cur.shape, op.out_act_qbits);
        } else if (op.out_offset < 0) {
          float* p = inplace_ptr(cur);
          backend::active().residual_add(p, skip_p, B, C, hw, op.mask_channels,
                                         p);
        } else {
          float* dst = require_slot(op);
          backend::active().residual_add(cur.p, skip_p, B, C, hw,
                                         op.mask_channels, dst);
          cur = View{dst, op.out_offset, cur.shape};
        }
        break;
      }
    }
  }

  require_float(cur, "the network output");
  if (out.shape() != cur.shape) out = Tensor(cur.shape);
  std::memcpy(out.data(), cur.p,
              static_cast<std::size_t>(cur.shape.numel()) * sizeof(float));
}

std::vector<std::int64_t> IntInferenceEngine::predict(const Tensor& x) const {
  return argmax_rows(forward(x));
}

}  // namespace adq::infer
