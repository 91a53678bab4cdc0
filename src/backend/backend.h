// Explicit backend / op interface for the inference kernels.
//
// Every performance-critical op the integer engine executes — the u8 GEMM,
// im2col patch lowering, depthwise convolution, activation quantize /
// dequantize, the fused affine epilogue, the residual add, sub-byte
// pack/unpack, and the float GEMM its 16-bit layers and the whole training
// path share — is reached through a Backend: a named table of typed kernel
// pointers. Backends register in backend/registry.cpp (`portable`, `avx2`,
// `vnni`); the engine calls ops only through backend::active(), so pinning
// ADQ_BACKEND=<name> redirects every op end to end, and the conformance
// harness (backend/conformance.h, tests/test_backend_ops.cpp) can drive any
// backend against the portable reference case by case. A new backend
// (fixed-point NEON, a GPU offload, the PIM simulator as an execution
// target, sub-byte native kernels) implements this struct, registers, and
// inherits both the engine integration and the randomized conformance gate
// without touching src/infer/.
//
// Contract: for every op, all backends compute the same function. Integer
// outputs (GEMM accumulators, quantization codes, lowered patch bytes,
// packed cells) must match the portable reference bit for bit — integer
// arithmetic has one right answer. Float outputs must match bit for bit
// too, signed zeros included: served logits are byte-identical on every
// backend (GoldenLogits), so a float kernel keeps the portable evaluation
// order and is never contracted into FMA. The conformance harness checks
// the float ops with a SIMD variant — depthwise_int, sgemm (the float GEMM
// under training and the engine's 16-bit float layers) and quantize_act's
// observed range — bytewise; the other float ops share the portable paths
// on every backend and are still checked against an NMSE bound.
#pragma once

#include <cstdint>

#include "tensor/im2col.h"  // ConvGeometry — the one conv-shape contract

namespace adq::backend {

/// Observed dynamic range of an activation tensor quantized to eqn-1
/// codes — the same observation FakeQuantizer::apply makes on this tensor
/// in the training path, so code -> value round-trips land on the same
/// grid.
struct ActQuant {
  float a_min = 0.0f;
  float a_scale = 0.0f;        // 0 for a degenerate (constant) tensor
  std::uint8_t zero_code = 0;  // grid code closest to the value 0.0 (padding)
};

/// Depthwise convolution arguments, decoupled from the engine's layer plan
/// so the conformance harness can construct cases directly. The integer
/// path reads the trailing block (w_code_sums .. zero_code); the float path
/// ignores it.
struct DepthwiseArgs {
  std::int64_t channels = 0;  // in_channels == out_channels
  std::int64_t in_h = 0, in_w = 0;
  std::int64_t kernel = 1, stride = 1, pad = 0;
  std::int64_t active_channels = 0;  // channels >= this write zeros (eqn 5)
  const float* epi_scale = nullptr;  // [channels] fused affine epilogue
  const float* epi_shift = nullptr;  // [channels]
  bool relu = false;

  // Integer path only: the zero-point correction constants of plan.h
  // (K = kernel^2) and the code that pads like im2col_u8 does.
  const std::int32_t* w_code_sums = nullptr;  // [channels]
  float ss = 0.0f;  // a_scale * w_scale
  float cw = 0.0f;  // a_min * w_scale   (multiplies w_code_sums[c])
  float ca = 0.0f;  // w_min * a_scale   (multiplies the patch code sum)
  float cc = 0.0f;  // K * a_min * w_min
  std::uint8_t zero_code = 0;

  std::int64_t out_h() const { return (in_h + 2 * pad - kernel) / stride + 1; }
  std::int64_t out_w() const { return (in_w + 2 * pad - kernel) / stride + 1; }
};

/// C[m x n] = A[m x k] * B[k x n] over u8 codes, writing (not accumulating
/// into) int32 C. Raw-pointer, row-major; lda/ldb/ldc are row strides in
/// elements.
using IgemmFn = void (*)(std::int64_t m, std::int64_t n, std::int64_t k,
                         const std::uint8_t* a, std::int64_t lda,
                         const std::uint8_t* b, std::int64_t ldb,
                         std::int32_t* c, std::int64_t ldc);

/// Sub-byte weight GEMM: C[m x n] = A[m x k] * B[k x n] where A holds
/// packed weight codes — two 4-bit nibbles (igemm_u8w4) or four 2-bit
/// crumbs (igemm_u8w2) per byte, little-endian within the byte, each row
/// byte-aligned (see packed_row_bytes) with zero tail bits. B is plain u8
/// codes. lda is A's row stride in BYTES; ldb/ldc are element strides as in
/// IgemmFn. Writes (not accumulates into) int32 C. The packed operand is
/// unpacked in-register per panel — no byte-weight materialization.
using IgemmPackedFn = void (*)(std::int64_t m, std::int64_t n, std::int64_t k,
                               const std::uint8_t* a_packed,
                               std::int64_t lda_bytes, const std::uint8_t* b,
                               std::int64_t ldb, std::int32_t* c,
                               std::int64_t ldc);

/// C[m x n] = alpha * op(A)[m x k] * op(B)[k x n] + beta * C in float,
/// row-major with row strides lda/ldb/ldc (tensor/gemm.h's sgemm, which
/// forwards here). Bit-identical to sgemm_generic on every backend.
using SgemmFn = void (*)(bool trans_a, bool trans_b, std::int64_t m,
                         std::int64_t n, std::int64_t k, float alpha,
                         const float* a, std::int64_t lda, const float* b,
                         std::int64_t ldb, float beta, float* c,
                         std::int64_t ldc);

/// Lowers one image of u8 codes to its [patch, out_h*out_w] column block;
/// patch row r starts at col + r * col_stride. Padding taps read pad_code.
using Im2colU8Fn = void (*)(const std::uint8_t* im, const ConvGeometry& g,
                            std::uint8_t* col, std::int64_t col_stride,
                            std::uint8_t pad_code);

/// Float variant (training-exact layers); padding taps read 0.0f.
using Im2colF32Fn = void (*)(const float* im, const ConvGeometry& g,
                             float* col, std::int64_t col_stride);

/// Whole-batch integer depthwise conv over pre-quantized codes, fused with
/// the per-channel zero-point correction and affine epilogue. act is
/// [batch, channels, in_h, in_w] codes, w_codes [channels, kernel^2], out
/// [batch, channels, out_h, out_w] floats.
using DepthwiseIntFn = void (*)(const std::uint8_t* act, std::int64_t batch,
                                const std::uint8_t* w_codes,
                                const DepthwiseArgs& args, float* out);

/// Float depthwise conv (same epilogue fusion, zero padding).
using DepthwiseF32Fn = void (*)(const float* x, std::int64_t batch,
                                const float* w, const DepthwiseArgs& args,
                                float* out);

/// Observes min/max of x[0..n), quantizes every element to a k-bit eqn-1
/// code in `codes` (caller-sized), and returns the observed range. Must be
/// bit-identical to the FakeQuantizer's observation + rounding, with one
/// signed-zero rule: a range end that is a zero is returned as +0.0
/// (ActQuant::a_min is never -0.0). A reduction in any lane order finds
/// the same min and max up to the sign of a zero tie, so the fold is what
/// makes the ActQuant bytes the same on every backend; the codes, and the
/// logits built from a_min, do not depend on that sign.
using QuantizeActFn = ActQuant (*)(const float* x, std::int64_t n, int bits,
                                   std::uint8_t* codes);

/// Snaps x[0..n) onto the k-bit grid of its own min/max into out (out may
/// alias x) — quantize + dequantize fused, the training path's fake quant.
using FakeQuantFn = void (*)(const float* x, std::int64_t n, int bits,
                             float* out);

/// Maps codes back to float values on the observed grid:
/// out[i] = a_min + a_scale * codes[i].
using DequantizeFn = void (*)(const std::uint8_t* codes, std::int64_t n,
                              const ActQuant& q, float* out);

/// Fused epilogue over one output row (`n` positions):
///   y = ea * (ss * acc + row_term + ca * colsum) + eb, then optional ReLU.
/// `colsum` may be null when ca == 0.
using EpilogueRowFn = void (*)(const std::int32_t* acc,
                               const std::int32_t* colsum, float ss,
                               float row_term, float ca, float ea, float eb,
                               bool relu, std::int64_t n, float* out);

/// dst = ReLU(cur + skip) over [b, c, hw] with channels >= mask_channels
/// zeroed (mask_channels < 0 disables the mask). dst may alias cur.
using ResidualAddFn = void (*)(const float* cur, const float* skip,
                               std::int64_t b, std::int64_t c, std::int64_t hw,
                               std::int64_t mask_channels, float* dst);

/// Packs `count` codes (< 2^cell_bits each) into little-endian cells.
using PackCodesFn = void (*)(const std::uint8_t* codes, std::int64_t count,
                             int cell_bits, std::uint8_t* packed);

/// Inverse of PackCodesFn: one code per output byte.
using UnpackCodesFn = void (*)(const std::uint8_t* packed, std::int64_t count,
                               int cell_bits, std::uint8_t* codes);

/// Packs `count` activation codes (< 2^cell_bits each) into little-endian
/// cells — same layout as PackCodesFn, but this is the per-forward hot path
/// that compresses arena slots (act_pack_u8pN), so implementations may
/// parallelize across byte-group-aligned chunks. Slack bytes past
/// packed_bytes(count, cell_bits) are never written.
using ActPackFn = void (*)(const std::uint8_t* codes, std::int64_t count,
                           int cell_bits, std::uint8_t* packed);

/// Inverse of ActPackFn (act_unpack_pNu8): expands a packed arena slot back
/// to one code per byte for the GEMM/im2col consumers. Same parallel
/// contract; bytes past `count` codes are never read beyond the packed
/// extent.
using ActUnpackFn = void (*)(const std::uint8_t* packed, std::int64_t count,
                             int cell_bits, std::uint8_t* codes);

/// One registered backend: a complete op table. Unavailable backends stay
/// registered (so error messages can name them) but must not be called.
struct Backend {
  const char* name = "";
  bool available = false;
  IgemmFn igemm = nullptr;
  IgemmPackedFn igemm_w4 = nullptr;  // nibble-packed int4 weights
  IgemmPackedFn igemm_w2 = nullptr;  // crumb-packed int2 weights
  Im2colU8Fn im2col_u8 = nullptr;
  Im2colF32Fn im2col_f32 = nullptr;
  DepthwiseIntFn depthwise_int = nullptr;
  DepthwiseF32Fn depthwise_f32 = nullptr;
  QuantizeActFn quantize_act = nullptr;
  FakeQuantFn fake_quant = nullptr;
  DequantizeFn dequantize = nullptr;
  EpilogueRowFn epilogue_row = nullptr;
  ResidualAddFn residual_add = nullptr;
  PackCodesFn pack_codes = nullptr;
  UnpackCodesFn unpack_codes = nullptr;
  ActPackFn act_pack = nullptr;
  ActUnpackFn act_unpack = nullptr;
  SgemmFn sgemm = nullptr;
};

/// The registry's op enumeration — one entry per Backend table slot. The
/// conformance harness, its perf mode, and bench_micro all iterate this
/// instead of hand-listing kernels, so a newly registered op is tested and
/// benchmarked the moment it exists.
enum class Op {
  kIgemm,
  kIgemmW4,
  kIgemmW2,
  kIm2colU8,
  kIm2colF32,
  kDepthwiseInt,
  kDepthwiseF32,
  kQuantizeAct,
  kFakeQuant,
  kDequantize,
  kEpilogue,
  kResidualAdd,
  kBitpack,  // pack + unpack round trip, verified as one op
  kActPack,    // hot-path arena-slot compression (act_pack_u8pN)
  kActUnpack,  // hot-path arena-slot expansion (act_unpack_pNu8)
  kSgemm,      // float GEMM (training + the engine's float layers)
};

inline constexpr Op kAllOps[] = {
    Op::kIgemm,       Op::kIgemmW4,     Op::kIgemmW2,   Op::kIm2colU8,
    Op::kIm2colF32,   Op::kDepthwiseInt, Op::kDepthwiseF32,
    Op::kQuantizeAct, Op::kFakeQuant,   Op::kDequantize, Op::kEpilogue,
    Op::kResidualAdd, Op::kBitpack,     Op::kActPack,   Op::kActUnpack,
    Op::kSgemm};

/// Stable lowercase op name (the --op filter / repro-command vocabulary).
const char* op_name(Op op);

/// Parses an op_name back; returns false on an unknown name.
bool op_from_name(const char* name, Op* out);

}  // namespace adq::backend
