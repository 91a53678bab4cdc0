// Portable reference implementations of the backend op table.
//
// The activation quantizer, depthwise kernels, fused epilogue and residual
// add moved here from src/infer/engine.cpp unchanged (same expressions,
// same evaluation order — the engine's logits must stay byte-identical
// across the refactor); the rest wrap the existing tensor/quant kernels so
// the registry exposes one uniform raw-pointer signature per op.
#include "backend/ops_portable.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "quant/quantizer.h"
#include "tensor/bitpack.h"
#include "tensor/gemm.h"
#include "tensor/gemm_int8.h"
#include "tensor/im2col.h"
#include "tensor/parallel.h"

namespace adq::backend {
namespace {

void im2col_u8_op(const std::uint8_t* im, const ConvGeometry& g,
                  std::uint8_t* col, std::int64_t col_stride,
                  std::uint8_t pad_code) {
  im2col_u8(im, g, col, col_stride, pad_code);
}

void im2col_f32_op(const float* im, const ConvGeometry& g, float* col,
                   std::int64_t col_stride) {
  im2col(im, g, col, col_stride);
}

ActQuant quantize_act_op(const float* px0, std::int64_t n, int bits,
                         std::uint8_t* pc) {
  ActQuant q;
  if (n == 0) return q;
  // Fused single-pass min/max over four independent accumulator lanes:
  // std::min/max reductions cannot be auto-vectorised (NaN ordering), so
  // the lanes buy instruction-level parallelism instead of a second and
  // third pass over the activations.
  float lo0 = px0[0], lo1 = px0[0], lo2 = px0[0], lo3 = px0[0];
  float hi0 = px0[0], hi1 = px0[0], hi2 = px0[0], hi3 = px0[0];
  std::int64_t i4 = 0;
  for (; i4 + 4 <= n; i4 += 4) {
    lo0 = std::min(lo0, px0[i4]);
    hi0 = std::max(hi0, px0[i4]);
    lo1 = std::min(lo1, px0[i4 + 1]);
    hi1 = std::max(hi1, px0[i4 + 1]);
    lo2 = std::min(lo2, px0[i4 + 2]);
    hi2 = std::max(hi2, px0[i4 + 2]);
    lo3 = std::min(lo3, px0[i4 + 3]);
    hi3 = std::max(hi3, px0[i4 + 3]);
  }
  float lo = std::min(std::min(lo0, lo1), std::min(lo2, lo3));
  float hi = std::max(std::max(hi0, hi1), std::max(hi2, hi3));
  for (; i4 < n; ++i4) {
    lo = std::min(lo, px0[i4]);
    hi = std::max(hi, px0[i4]);
  }
  q.a_min = lo;
  if (hi <= lo) {  // constant tensor: every code 0, value = a_min
    std::fill(pc, pc + n, 0);
    return q;
  }

  const float levels = static_cast<float>(quant::max_code(bits));
  q.a_scale = (hi - lo) / levels;
  const float inv = levels / (hi - lo);
  const float* px = px0;
  // Rounding via the 1.5 * 2^23 magic constant: adding it forces the
  // scaled value (in [0, 255]) to round to nearest-even into the low
  // mantissa bits — bit-identical to the std::nearbyint the FakeQuantizer
  // applies under the default FP environment, but a pure add, which lets
  // the SSE2 path below encode 16 activations per iteration where
  // nearbyint is a scalar libm call at baseline -O3.
  constexpr float kRoundMagic = 12582912.0f;
  std::uint32_t magic_bits;
  std::memcpy(&magic_bits, &kRoundMagic, sizeof(magic_bits));
  parallel_for(0, n, [&](std::int64_t b, std::int64_t e) {
    std::int64_t i = b;
#if defined(__SSE2__)
    const __m128 vlo = _mm_set1_ps(lo), vhi = _mm_set1_ps(hi);
    const __m128 vinv = _mm_set1_ps(inv), vmagic = _mm_set1_ps(kRoundMagic);
    const __m128i vmbits = _mm_set1_epi32(static_cast<int>(magic_bits));
    for (; i + 16 <= e; i += 16) {
      __m128i q4[4];
      for (int part = 0; part < 4; ++part) {
        __m128 v = _mm_loadu_ps(px + i + 4 * part);
        v = _mm_min_ps(_mm_max_ps(v, vlo), vhi);
        v = _mm_add_ps(_mm_mul_ps(_mm_sub_ps(v, vlo), vinv), vmagic);
        q4[part] = _mm_sub_epi32(_mm_castps_si128(v), vmbits);
      }
      // Codes are in [0, 255], so the signed saturating packs are exact.
      const __m128i lo16 = _mm_packs_epi32(q4[0], q4[1]);
      const __m128i hi16 = _mm_packs_epi32(q4[2], q4[3]);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(pc + i),
                       _mm_packus_epi16(lo16, hi16));
    }
#endif
    for (; i < e; ++i) {
      const float v = std::clamp(px[i], lo, hi);
      const float t = (v - lo) * inv + kRoundMagic;
      std::uint32_t bits_t;
      std::memcpy(&bits_t, &t, sizeof(bits_t));
      pc[i] = static_cast<std::uint8_t>(bits_t - magic_bits);
    }
  }, /*grain=*/4096);
  const float zero = std::clamp(0.0f, lo, hi);
  q.zero_code = static_cast<std::uint8_t>(std::nearbyint((zero - lo) * inv));
  return q;
}

void fake_quant_op(const float* x, std::int64_t n, int bits, float* out) {
  quant::fake_quantize_into(x, n, bits, out);
}

void dequantize_op(const std::uint8_t* codes, std::int64_t n,
                   const ActQuant& q, float* out) {
  for (std::int64_t i = 0; i < n; ++i) {
    out[i] = q.a_min + q.a_scale * static_cast<float>(codes[i]);
  }
}

void epilogue_row_op(const std::int32_t* acc, const std::int32_t* colsum,
                     float ss, float row_term, float ca, float ea, float eb,
                     bool relu, std::int64_t n, float* out) {
  for (std::int64_t s = 0; s < n; ++s) {
    float v = ss * static_cast<float>(acc[s]) + row_term;
    if (colsum != nullptr) v += ca * static_cast<float>(colsum[s]);
    v = ea * v + eb;
    out[s] = relu ? std::max(v, 0.0f) : v;
  }
}

void depthwise_int_op(const std::uint8_t* act, std::int64_t B,
                      const std::uint8_t* wc, const DepthwiseArgs& a,
                      float* out) {
  const std::int64_t C = a.channels, H = a.in_h, W = a.in_w;
  const std::int64_t oh = a.out_h(), ow = a.out_w();
  const std::int64_t k = a.kernel, stride = a.stride, pad = a.pad;

  parallel_for(0, B * C, [&](std::int64_t p0, std::int64_t p1) {
    for (std::int64_t p = p0; p < p1; ++p) {
      const std::int64_t c = p % C;
      float* dst = out + p * oh * ow;
      if (c >= a.active_channels) {
        std::fill(dst, dst + oh * ow, 0.0f);
        continue;
      }
      const std::uint8_t* plane = act + p * H * W;
      const std::uint8_t* w = wc + c * k * k;
      const float row_term =
          a.cw * static_cast<float>(a.w_code_sums[static_cast<std::size_t>(c)]) +
          a.cc;
      const float ea = a.epi_scale[static_cast<std::size_t>(c)];
      const float eb = a.epi_shift[static_cast<std::size_t>(c)];
      for (std::int64_t y = 0; y < oh; ++y) {
        for (std::int64_t xo = 0; xo < ow; ++xo) {
          std::int32_t acc = 0, asum = 0;
          for (std::int64_t ky = 0; ky < k; ++ky) {
            const std::int64_t iy = y * stride + ky - pad;
            for (std::int64_t kx = 0; kx < k; ++kx) {
              const std::int64_t ix = xo * stride + kx - pad;
              const std::int32_t code =
                  (iy < 0 || iy >= H || ix < 0 || ix >= W)
                      ? a.zero_code
                      : plane[iy * W + ix];
              acc += static_cast<std::int32_t>(w[ky * k + kx]) * code;
              asum += code;
            }
          }
          float v = a.ss * static_cast<float>(acc) + row_term +
                    a.ca * static_cast<float>(asum);
          v = ea * v + eb;
          dst[y * ow + xo] = a.relu ? std::max(v, 0.0f) : v;
        }
      }
    }
  });
}

void depthwise_f32_op(const float* x, std::int64_t B, const float* weights,
                      const DepthwiseArgs& a, float* out) {
  const std::int64_t C = a.channels, H = a.in_h, W = a.in_w;
  const std::int64_t oh = a.out_h(), ow = a.out_w();
  const std::int64_t k = a.kernel, stride = a.stride, pad = a.pad;

  parallel_for(0, B * C, [&](std::int64_t p0, std::int64_t p1) {
    for (std::int64_t p = p0; p < p1; ++p) {
      const std::int64_t c = p % C;
      float* dst = out + p * oh * ow;
      if (c >= a.active_channels) {
        std::fill(dst, dst + oh * ow, 0.0f);
        continue;
      }
      const float* plane = x + p * H * W;
      const float* w = weights + c * k * k;
      const float ea = a.epi_scale[static_cast<std::size_t>(c)];
      const float eb = a.epi_shift[static_cast<std::size_t>(c)];
      for (std::int64_t y = 0; y < oh; ++y) {
        for (std::int64_t xo = 0; xo < ow; ++xo) {
          float acc = 0.0f;
          for (std::int64_t ky = 0; ky < k; ++ky) {
            const std::int64_t iy = y * stride + ky - pad;
            if (iy < 0 || iy >= H) continue;
            for (std::int64_t kx = 0; kx < k; ++kx) {
              const std::int64_t ix = xo * stride + kx - pad;
              if (ix < 0 || ix >= W) continue;
              acc += w[ky * k + kx] * plane[iy * W + ix];
            }
          }
          const float v = ea * acc + eb;
          dst[y * ow + xo] = a.relu ? std::max(v, 0.0f) : v;
        }
      }
    }
  });
}

void residual_add_op(const float* cur, const float* skip, std::int64_t B,
                     std::int64_t C, std::int64_t hw,
                     std::int64_t mask_channels, float* dst) {
  const std::int64_t live = mask_channels < 0 ? C : mask_channels;
  for (std::int64_t b = 0; b < B; ++b) {
    for (std::int64_t c = 0; c < C; ++c) {
      float* d = dst + (b * C + c) * hw;
      if (c >= live) {
        std::fill(d, d + hw, 0.0f);
        continue;
      }
      const float* cu = cur + (b * C + c) * hw;
      const float* sk = skip + (b * C + c) * hw;
      for (std::int64_t i = 0; i < hw; ++i) {
        d[i] = std::max(cu[i] + sk[i], 0.0f);
      }
    }
  }
}

void pack_codes_op(const std::uint8_t* codes, std::int64_t count,
                   int cell_bits, std::uint8_t* packed) {
  pack_codes(codes, count, cell_bits, packed);
}

// Sub-byte weight GEMM reference: unpack the row-aligned packed A into a
// byte-per-code scratch, then defer to the u8 oracle. Deliberately the
// obvious form — the SIMD tiers' in-register nibble/crumb expansion is
// judged against this bit for bit.
void igemm_packed_ref(std::int64_t m, std::int64_t n, std::int64_t k,
                      const std::uint8_t* a_packed, std::int64_t lda_bytes,
                      const std::uint8_t* b, std::int64_t ldb, std::int32_t* c,
                      std::int64_t ldc, int cell_bits) {
  thread_local std::vector<std::uint8_t> scratch;
  if (static_cast<std::int64_t>(scratch.size()) < m * k) {
    scratch.resize(static_cast<std::size_t>(m * k));
  }
  for (std::int64_t i = 0; i < m; ++i) {
    unpack_codes(a_packed + i * lda_bytes, k, cell_bits,
                 scratch.data() + i * k);
  }
  igemm_u8_generic(m, n, k, scratch.data(), k, b, ldb, c, ldc);
}

void igemm_u8w4_op(std::int64_t m, std::int64_t n, std::int64_t k,
                   const std::uint8_t* a_packed, std::int64_t lda_bytes,
                   const std::uint8_t* b, std::int64_t ldb, std::int32_t* c,
                   std::int64_t ldc) {
  igemm_packed_ref(m, n, k, a_packed, lda_bytes, b, ldb, c, ldc, 4);
}

void igemm_u8w2_op(std::int64_t m, std::int64_t n, std::int64_t k,
                   const std::uint8_t* a_packed, std::int64_t lda_bytes,
                   const std::uint8_t* b, std::int64_t ldb, std::int32_t* c,
                   std::int64_t ldc) {
  igemm_packed_ref(m, n, k, a_packed, lda_bytes, b, ldb, c, ldc, 2);
}

void unpack_codes_op(const std::uint8_t* packed, std::int64_t count,
                     int cell_bits, std::uint8_t* codes) {
  unpack_codes(packed, count, cell_bits, codes);
}

// Per-forward arena-slot compression: same cell layout as pack_codes, but
// parallelized across byte-group-aligned chunks (a chunk boundary is always
// a multiple of 8/cell codes, so every worker writes disjoint whole bytes).
// Chunks delegate to the scalar bitpack kernels, which are the ground truth
// the conformance case also checks against.
void act_pack_op(const std::uint8_t* codes, std::int64_t count, int cell_bits,
                 std::uint8_t* packed) {
  if (count <= 0) return;
  if (cell_bits == 8) {
    std::memcpy(packed, codes, static_cast<std::size_t>(count));
    return;
  }
  const std::int64_t per = 8 / cell_bits;
  const std::int64_t groups = (count + per - 1) / per;
  parallel_for(0, groups, [&](std::int64_t g0, std::int64_t g1) {
    const std::int64_t c0 = g0 * per;
    const std::int64_t c1 = std::min(count, g1 * per);
    pack_codes(codes + c0, c1 - c0, cell_bits, packed + g0);
  }, /*grain=*/4096);
}

void act_unpack_op(const std::uint8_t* packed, std::int64_t count,
                   int cell_bits, std::uint8_t* codes) {
  if (count <= 0) return;
  if (cell_bits == 8) {
    std::memcpy(codes, packed, static_cast<std::size_t>(count));
    return;
  }
  const std::int64_t per = 8 / cell_bits;
  const std::int64_t groups = (count + per - 1) / per;
  parallel_for(0, groups, [&](std::int64_t g0, std::int64_t g1) {
    const std::int64_t c0 = g0 * per;
    const std::int64_t c1 = std::min(count, g1 * per);
    unpack_codes(packed + g0, c1 - c0, cell_bits, codes + c0);
  }, /*grain=*/4096);
}

}  // namespace

const Backend& portable_backend() {
  static const Backend b = [] {
    Backend t;
    t.name = "portable";
    t.available = true;
    t.igemm = &igemm_u8_generic;
    t.igemm_w4 = &igemm_u8w4_op;
    t.igemm_w2 = &igemm_u8w2_op;
    t.im2col_u8 = &im2col_u8_op;
    t.im2col_f32 = &im2col_f32_op;
    t.depthwise_int = &depthwise_int_op;
    t.depthwise_f32 = &depthwise_f32_op;
    t.quantize_act = &quantize_act_op;
    t.fake_quant = &fake_quant_op;
    t.dequantize = &dequantize_op;
    t.epilogue_row = &epilogue_row_op;
    t.residual_add = &residual_add_op;
    t.pack_codes = &pack_codes_op;
    t.unpack_codes = &unpack_codes_op;
    t.act_pack = &act_pack_op;
    t.act_unpack = &act_unpack_op;
    t.sgemm = &sgemm_generic;
    return t;
  }();
  return b;
}

}  // namespace adq::backend
