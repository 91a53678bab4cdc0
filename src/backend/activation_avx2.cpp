// AVX2 activation quantize and u8 lowering: the two ops around every
// integer conv (quantize_act, then im2col_u8 per image).
//
// quantize_act: the range pass runs four ymm min/max accumulators (32
// floats per iteration), the encode 32 floats per iteration with the
// portable op order — max(lo), min(hi), (v - lo) * inv + 1.5 * 2^23, then
// a saturating pack — under the portable parallel_for grain. Both passes
// reduce in a different order from the portable op's four scalar lanes,
// which can only change which zero a tied range end keeps; act_grid folds
// that to +0.0 for every backend (backend.h).
//
// im2col_u8 has three paths, all writing whole patch rows (the portable
// op's time goes to per-row copies of 2- to 32-byte rows):
//   * Pointwise (1x1, stride 1, no pad): each patch row is a plane copy.
//   * Tiny maps (output plane <= 16 codes, input plane <= 64: the 2x2 and
//     4x4 layers and the stride-2 8x8 -> 4x4 ones): a patch row is built
//     in one xmm, a pshufb per 16-byte input block plus pad_code in the
//     lanes that read padding, from shuffle controls made once per call.
//   * Everything else with stride 1 or 2: each patch row (c, kh, kw) is one
//     contiguous window of a staged "phase plane". Phase (ry, rx) holds the
//     input codes at rows s*Y + ry and columns s*X + rx, laid out with the
//     output row pitch ow, pad_code where the input ends. Tap (kh, kw)
//     reads phase ((kh - pad) mod s, (kw - pad) mod s) shifted by
//     floor((kh - pad)/s) rows and floor((kw - pad)/s) columns, so a patch
//     row is a run of unaligned 32-byte loads from the stage, with a blend
//     to pad_code at the output columns whose shifted column falls off the
//     row. Stride 1 stages a plain copy of the plane; stride 2
//     deinterleaves each input row with one pshufb per 8 to 32 codes.
// Every store stays inside [0, ohw) of its patch row: a tail is one
// overlapping full-width store, or 8/4/2/1-byte stores below 16 bytes.
// Shapes outside the fuzzed range (stride > 2, pad > 2, kernel > 5) and
// those the phase layout cannot express (a shifted column that wraps onto
// real input, maps wider than 255) run the portable op.
//
// Only this file is compiled with -mavx2 (ADQ_AVX2_BUILD), never -mfma, so
// the encode's multiply and add are not contracted; it is reached only
// through the avx2 and vnni tables, whose cpuid checks imply AVX2.
#include "backend/igemm_kernels.h"

#include <algorithm>
#include <cstring>

#include "backend/ops_portable.h"
#include "tensor/parallel.h"

#if defined(ADQ_AVX2_BUILD)
#include <immintrin.h>

#include "backend/bytes_avx2.h"
#endif

namespace adq {

#if defined(ADQ_AVX2_BUILD)

namespace {

using namespace avx2;

// --- quantize_act ----------------------------------------------------------

constexpr float kRoundMagic = 12582912.0f;  // 1.5 * 2^23, see ops_portable

// Min and max of x[0..n), n >= 1. _mm256_min_ps(v, acc) is v < acc ? v :
// acc, i.e. std::min(acc, v) lane for lane (likewise max), so each lane
// follows the scalar reduction's NaN rule.
void range_span(const float* x, std::int64_t n, float* lo_out,
                float* hi_out) {
  __m256 lo[4], hi[4];
  for (int k = 0; k < 4; ++k) lo[k] = hi[k] = _mm256_set1_ps(x[0]);
  std::int64_t i = 0;
  for (; i + 32 <= n; i += 32) {
    for (int k = 0; k < 4; ++k) {
      const __m256 v = _mm256_loadu_ps(x + i + 8 * k);
      lo[k] = _mm256_min_ps(v, lo[k]);
      hi[k] = _mm256_max_ps(v, hi[k]);
    }
  }
  const __m256 l8 =
      _mm256_min_ps(_mm256_min_ps(lo[0], lo[1]), _mm256_min_ps(lo[2], lo[3]));
  const __m256 h8 =
      _mm256_max_ps(_mm256_max_ps(hi[0], hi[1]), _mm256_max_ps(hi[2], hi[3]));
  __m128 l4 = _mm_min_ps(_mm256_castps256_ps128(l8),
                         _mm256_extractf128_ps(l8, 1));
  __m128 h4 = _mm_max_ps(_mm256_castps256_ps128(h8),
                         _mm256_extractf128_ps(h8, 1));
  l4 = _mm_min_ps(l4, _mm_movehl_ps(l4, l4));
  h4 = _mm_max_ps(h4, _mm_movehl_ps(h4, h4));
  l4 = _mm_min_ss(l4, _mm_shuffle_ps(l4, l4, 1));
  h4 = _mm_max_ss(h4, _mm_shuffle_ps(h4, h4, 1));
  float lo_s = _mm_cvtss_f32(l4), hi_s = _mm_cvtss_f32(h4);
  for (; i < n; ++i) {
    lo_s = std::min(lo_s, x[i]);
    hi_s = std::max(hi_s, x[i]);
  }
  *lo_out = lo_s;
  *hi_out = hi_s;
}

struct Encoder {
  __m256 lo, hi, inv, magic;
  __m256i magic_bits;

  // Codes of x[0..32) into codes[0..32).
  void encode32(const float* x, std::uint8_t* codes) const {
    __m256i q[4];
    for (int k = 0; k < 4; ++k) {
      __m256 v = _mm256_loadu_ps(x + 8 * k);
      v = _mm256_min_ps(_mm256_max_ps(v, lo), hi);
      v = _mm256_add_ps(_mm256_mul_ps(_mm256_sub_ps(v, lo), inv), magic);
      q[k] = _mm256_sub_epi32(_mm256_castps_si256(v), magic_bits);
    }
    // Codes are in [0, 255], so the saturating packs are exact; the packs
    // work per 128-bit lane, and the dword permute restores the order.
    const __m256i b = _mm256_packus_epi16(_mm256_packs_epi32(q[0], q[1]),
                                          _mm256_packs_epi32(q[2], q[3]));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(codes),
        _mm256_permutevar8x32_epi32(b, _mm256_setr_epi32(0, 4, 1, 5, 2, 6,
                                                         3, 7)));
  }
};

// --- im2col_u8 -------------------------------------------------------------

constexpr std::int64_t kSlack = 32;         // stage bytes around each plane
constexpr std::int64_t kBandBytes = 1024;   // output codes per band
constexpr std::int64_t kStageBytes = 8192;  // all phase planes of a band
constexpr std::int64_t kMaxKernel = 5;      // larger kernels run portable

std::int64_t floor_div(std::int64_t a, std::int64_t s) {
  return a >= 0 ? a / s : -((-a + s - 1) / s);
}

// Patch row t of a channel: its window in the stage and the output
// columns that read pad_code instead — those whose column x, shifted by
// the tap's dx, leaves [0, ow).
struct Tap {
  std::int64_t stage_off;  // window start, from the stage buffer's
  int cut;                 // 0: none; -1: x <= bound; +1: x >= bound
  __m256i bound;
};

// Writes a channel's patch rows, each `len` codes from its stage window,
// with W-byte chunks. xs[q] = q % ow (ow <= 255) gives the chunk's output
// columns for the cut test.
template <int W>
void emit_channel(const std::uint8_t* stage, const Tap* taps,
                  std::int64_t ntaps, std::uint8_t* out, std::int64_t ld,
                  std::int64_t len, const std::uint8_t* xs, __m256i pad_v) {
  using B = Bytes<W>;
  const typename B::V pad = B::narrow(pad_v);
  for (std::int64_t t = 0; t < ntaps; ++t) {
    const Tap& tap = taps[t];
    const std::uint8_t* src = stage + tap.stage_off;
    std::uint8_t* dst = out + t * ld;
    const typename B::V bound = B::narrow(tap.bound);
    if (tap.cut == 0) {
      for_chunks<W>(len, [&](std::int64_t q) {
        B::store(dst + q, B::load(src + q));
      });
    } else if (tap.cut < 0) {
      for_chunks<W>(len, [&](std::int64_t q) {
        const typename B::V x = B::load(xs + q);
        B::store(dst + q, B::blend(B::load(src + q), pad,
                                   B::eq(B::min(x, bound), x)));
      });
    } else {
      for_chunks<W>(len, [&](std::int64_t q) {
        const typename B::V x = B::load(xs + q);
        B::store(dst + q, B::blend(B::load(src + q), pad,
                                   B::eq(B::max(x, bound), x)));
      });
    }
  }
}

// Stores the low n bytes of v at p, 1 <= n <= 16, as 8/4/2/1-byte moves.
void store_n(std::uint8_t* p, __m128i v, std::int64_t n) {
  if (n == 16) {
    Bytes<16>::store(p, v);
    return;
  }
  if (n & 8) {
    Bytes<8>::store(p, v);
    p += 8;
    v = _mm_srli_si128(v, 8);
  }
  if (n & 4) {
    Bytes<4>::store(p, v);
    p += 4;
    v = _mm_srli_si128(v, 4);
  }
  if (n & 2) {
    const auto s = static_cast<std::uint16_t>(_mm_extract_epi16(v, 0));
    std::memcpy(p, &s, sizeof(s));
    p += 2;
    v = _mm_srli_si128(v, 2);
  }
  if (n & 1) *p = static_cast<std::uint8_t>(_mm_extract_epi8(v, 0));
}

// Whole-plane lowering for maps whose output plane fits one xmm (ohw <=
// 16) and whose input plane fits four (hw <= 64), kernels of up to nine
// taps: tap t's patch row is fill[t] (pad_code in the lanes that read
// padding, else 0) OR'd with one pshufb of each of the plane's 16-byte
// blocks (ctrl[t][k]: the source byte within block k, or 0x80). The
// tables are per call; per channel only the blocks are loaded.
struct TinyPlan {
  __m128i ctrl[9][4];
  __m128i fill[9];
  std::int64_t ntaps = 0, blocks = 0, hw = 0, len = 0;

  // Builds the tables with one 16-bit lane per output position, so the
  // setup costs tens of vector ops, not a scalar pass per tap and lane.
  TinyPlan(const ConvGeometry& g, std::int64_t ow, std::int64_t len_,
           std::uint8_t pad)
      : ntaps(g.kernel_h * g.kernel_w),
        blocks((g.in_h * g.in_w + 15) / 16),
        hw(g.in_h * g.in_w),
        len(len_) {
    alignas(32) std::int16_t qy[16], qx[16];
    for (std::int64_t q = 0, y = 0, x = 0; q < 16; ++q) {
      qy[q] = static_cast<std::int16_t>(y * g.stride - g.pad);
      qx[q] = static_cast<std::int16_t>(x * g.stride - g.pad);
      if (++x == ow) x = 0, ++y;
    }
    const auto set = [](std::int64_t v) {
      return _mm256_set1_epi16(static_cast<std::int16_t>(v));
    };
    const auto pack = [](__m256i v) {  // 16 lanes of 0..255 -> 16 bytes
      return _mm_packus_epi16(_mm256_castsi256_si128(v),
                              _mm256_extracti128_si256(v, 1));
    };
    const __m256i vy = _mm256_load_si256(reinterpret_cast<__m256i*>(qy));
    const __m256i vx = _mm256_load_si256(reinterpret_cast<__m256i*>(qx));
    const __m256i none = set(0x80), pad_v = set(pad), lo = set(-1);
    for (std::int64_t kh = 0, t = 0; kh < g.kernel_h; ++kh) {
      const __m256i iy = _mm256_add_epi16(vy, set(kh));
      const __m256i in_y =
          _mm256_and_si256(_mm256_cmpgt_epi16(iy, lo),
                           _mm256_cmpgt_epi16(set(g.in_h), iy));
      for (std::int64_t kw = 0; kw < g.kernel_w; ++kw, ++t) {
        const __m256i ix = _mm256_add_epi16(vx, set(kw));
        const __m256i in = _mm256_and_si256(
            in_y, _mm256_and_si256(_mm256_cmpgt_epi16(ix, lo),
                                   _mm256_cmpgt_epi16(set(g.in_w), ix)));
        const __m256i src =
            _mm256_add_epi16(_mm256_mullo_epi16(iy, set(g.in_w)), ix);
        const __m256i byte = _mm256_and_si256(src, set(15));
        const __m256i block = _mm256_srai_epi16(src, 4);
        for (std::int64_t k = 0; k < blocks; ++k) {
          const __m256i mine =
              _mm256_and_si256(in, _mm256_cmpeq_epi16(block, set(k)));
          ctrl[t][k] = pack(_mm256_blendv_epi8(none, byte, mine));
        }
        fill[t] = pack(_mm256_andnot_si256(in, pad_v));
      }
    }
  }
};

// Len is the patch row length when it is 16, 8 or 4 (one store), else 0.
template <int Blocks, int Len>
void tiny_channels(const std::uint8_t* im, std::int64_t channels,
                   const TinyPlan& plan, std::uint8_t* col, std::int64_t ld) {
  const std::int64_t total = channels * plan.hw;
  for (std::int64_t c = 0; c < channels; ++c) {
    __m128i b[Blocks];
    for (int k = 0; k < Blocks; ++k) {
      const std::int64_t at = c * plan.hw + 16 * k;
      if (at + 16 <= total) {
        b[k] = Bytes<16>::load(im + at);
      } else {  // the image's last bytes: never read past them
        alignas(16) std::uint8_t tail[16] = {};
        std::memcpy(tail, im + at, static_cast<std::size_t>(total - at));
        b[k] = Bytes<16>::load(tail);
      }
    }
    std::uint8_t* out = col + c * plan.ntaps * ld;
    for (std::int64_t t = 0; t < plan.ntaps; ++t, out += ld) {
      __m128i v = plan.fill[t];
      for (int k = 0; k < Blocks; ++k) {
        v = _mm_or_si128(v, _mm_shuffle_epi8(b[k], plan.ctrl[t][k]));
      }
      if constexpr (Len == 0) {
        store_n(out, v, plan.len);
      } else {
        Bytes<Len>::store(out, v);
      }
    }
  }
}

void im2col_tiny(const std::uint8_t* im, const ConvGeometry& g,
                 std::int64_t ow, std::int64_t len, std::uint8_t* col,
                 std::int64_t ld, std::uint8_t pad) {
  const TinyPlan plan(g, ow, len, pad);
  using TinyFn = void (*)(const std::uint8_t*, std::int64_t, const TinyPlan&,
                          std::uint8_t*, std::int64_t);
  static constexpr TinyFn kByBlocks[4][4] = {
      {&tiny_channels<1, 16>, &tiny_channels<1, 8>, &tiny_channels<1, 4>,
       &tiny_channels<1, 0>},
      {&tiny_channels<2, 16>, &tiny_channels<2, 8>, &tiny_channels<2, 4>,
       &tiny_channels<2, 0>},
      {&tiny_channels<3, 16>, &tiny_channels<3, 8>, &tiny_channels<3, 4>,
       &tiny_channels<3, 0>},
      {&tiny_channels<4, 16>, &tiny_channels<4, 8>, &tiny_channels<4, 4>,
       &tiny_channels<4, 0>}};
  const int store = len == 16 ? 0 : len == 8 ? 1 : len == 4 ? 2 : 3;
  kByBlocks[plan.blocks - 1][store](im, g.channels, plan, col, ld);
}

using EmitFn = void (*)(const std::uint8_t*, const Tap*, std::int64_t,
                        std::uint8_t*, std::int64_t, std::int64_t,
                        const std::uint8_t*, __m256i);

}  // namespace

backend::ActQuant quantize_act_avx2(const float* x, std::int64_t n, int bits,
                                    std::uint8_t* codes) {
  if (n == 0) return backend::ActQuant{};
  float lo, hi;
  range_span(x, n, &lo, &hi);
  const backend::ActGrid grid = backend::act_grid(lo, hi, bits);
  lo = grid.q.a_min;
  hi = grid.hi;
  if (hi <= lo) {  // constant tensor: every code 0, value = a_min
    std::fill(codes, codes + n, 0);
    return grid.q;
  }
  const float inv = grid.inv;
  std::uint32_t magic_bits;
  std::memcpy(&magic_bits, &kRoundMagic, sizeof(magic_bits));
  const Encoder enc{_mm256_set1_ps(lo), _mm256_set1_ps(hi),
                    _mm256_set1_ps(inv), _mm256_set1_ps(kRoundMagic),
                    _mm256_set1_epi32(static_cast<int>(magic_bits))};
  parallel_for(0, n, [&](std::int64_t b, std::int64_t e) {
    if (e - b >= 32) {
      std::int64_t i = b;
      for (; i + 32 <= e; i += 32) enc.encode32(x + i, codes + i);
      // The tail re-encodes the chunk's last 32 values; the overlap writes
      // the codes it already wrote.
      if (i < e) enc.encode32(x + e - 32, codes + e - 32);
      return;
    }
    for (std::int64_t i = b; i < e; ++i) {
      const float v = std::clamp(x[i], lo, hi);
      const float t = (v - lo) * inv + kRoundMagic;
      std::uint32_t bits_t;
      std::memcpy(&bits_t, &t, sizeof(bits_t));
      codes[i] = static_cast<std::uint8_t>(bits_t - magic_bits);
    }
  }, /*grain=*/4096);
  return grid.q;
}

void im2col_u8_avx2(const std::uint8_t* im, const ConvGeometry& g,
                    std::uint8_t* col, std::int64_t ld, std::uint8_t pad) {
  const std::int64_t s = g.stride, p = g.pad;
  const std::int64_t kh_n = g.kernel_h, kw_n = g.kernel_w;
  const std::int64_t h = g.in_h, w = g.in_w, hw = h * w;
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  // The shapes the conformance harness fuzzes; anything else (an empty
  // output included) runs the portable op.
  if (s < 1 || s > 2 || p < 0 || p > 2 || kh_n < 1 || kh_n > kMaxKernel ||
      kw_n < 1 || kw_n > kMaxKernel || oh < 1 || ow < 1) {
    im2col_u8(im, g, col, ld, pad);
    return;
  }
  if (s == 1 && p == 0 && kh_n == 1 && kw_n == 1) {  // pointwise: planes
    for (std::int64_t c = 0; c < g.channels; ++c) {
      copy_bytes(col + c * ld, im + c * hw, hw);
    }
    return;
  }
  if (oh * ow <= 16 && hw <= 64 && kh_n * kw_n <= 9) {
    im2col_tiny(im, g, ow, oh * ow, col, ld, pad);
    return;
  }

  // Tap k reads phase r = (k - pad) mod s, shifted by d = floor((k - pad)/s).
  std::int64_t dy[kMaxKernel], ry[kMaxKernel], dx[kMaxKernel], rx[kMaxKernel];
  bool ok = ow <= 255 && oh * ow >= 4;
  for (std::int64_t k = 0; k < std::max(kh_n, kw_n); ++k) {
    dy[k] = dx[k] = floor_div(k - p, s);
    ry[k] = rx[k] = k - p - s * dx[k];
    // A column shifted past ow reads pad_code, so it must lie past the
    // input's last column too.
    if (k < kw_n && dx[k] > 0 && s * ow + rx[k] < w) ok = false;
  }
  if (!ok) {
    im2col_u8(im, g, col, ld, pad);
    return;
  }
  const std::int64_t dy_min = floor_div(-p, s);
  const std::int64_t span = dy[kh_n - 1] - dy_min;
  const std::int64_t phases = s * s;
  // Output rows per band: at least 4, as ow <= 255 and span <= 4.
  const std::int64_t band =
      std::min({oh, kBandBytes / ow,
                (kStageBytes / phases - 2 * kSlack) / ow - span});

  const std::int64_t pitch = (band + span) * ow + 2 * kSlack;
  const std::int64_t ntaps = kh_n * kw_n;
  Tap taps[kMaxKernel * kMaxKernel];
  bool row_phase[2] = {false, false};
  for (std::int64_t kh = 0; kh < kh_n; ++kh) {
    row_phase[ry[kh]] = true;
    for (std::int64_t kw = 0; kw < kw_n; ++kw) {
      Tap& t = taps[kh * kw_n + kw];
      t.stage_off = (ry[kh] * s + rx[kw]) * pitch + kSlack +
                    (dy[kh] - dy_min) * ow + dx[kw];
      t.cut = dx[kw] < 0 ? -1 : dx[kw] > 0 ? 1 : 0;
      const std::int64_t b =
          dx[kw] < 0 ? -dx[kw] - 1 : std::max<std::int64_t>(0, ow - dx[kw]);
      t.bound = _mm256_set1_epi8(static_cast<char>(b));
    }
  }
  alignas(32) std::uint8_t xs[kBandBytes];
  for (std::int64_t q = 0, x = 0; q < band * ow; ++q) {
    xs[q] = static_cast<std::uint8_t>(x);
    x = x + 1 == ow ? 0 : x + 1;
  }
  const __m256i pad_v = _mm256_set1_epi8(static_cast<char>(pad));

  alignas(32) std::uint8_t stage[kStageBytes];
  for (std::int64_t y0 = 0; y0 < oh; y0 += band) {
    const std::int64_t y1 = std::min(oh, y0 + band);
    const std::int64_t rows = y1 - y0 + span, len = (y1 - y0) * ow;
    const EmitFn emit = len >= 32   ? &emit_channel<32>
                        : len >= 16 ? &emit_channel<16>
                        : len >= 8  ? &emit_channel<8>
                                    : &emit_channel<4>;
    // Stage rows Y in [y0 + dy_min, y1 + dy_max): input row s * Y + ry.
    // The stages start as pad_code and per channel only the input codes
    // are copied over them, so the border rows and columns stay pad_code.
    const auto stage_channel = [&](std::int64_t c) {
      const std::uint8_t* im_c = im + c * hw;
      std::uint8_t* base = stage + kSlack;
      if (s == 1) {
        const std::int64_t r0 = std::max<std::int64_t>(0, -(y0 + dy_min));
        const std::int64_t r1 = std::min(rows, h - (y0 + dy_min));
        const std::uint8_t* src = im_c + (y0 + dy_min + r0) * w;
        std::uint8_t* dst = base + r0 * ow;
        if (ow == w) {
          copy_bytes(dst, src, (r1 - r0) * w);
        } else {
          for (std::int64_t r = r0; r < r1; ++r, src += w, dst += ow) {
            copy_bytes(dst, src, std::min(w, ow));
          }
        }
        return;
      }
      for (std::int64_t r_phase = 0; r_phase < 2; ++r_phase) {
        if (!row_phase[r_phase]) continue;
        std::uint8_t* even = base + 2 * r_phase * pitch;
        for (std::int64_t r = 0; r < rows; ++r) {
          const std::int64_t iy = 2 * (y0 + dy_min + r) + r_phase;
          if (iy < 0 || iy >= h) continue;
          deinterleave_row(im_c + iy * w, w, ow, pad, even + r * ow,
                           even + pitch + r * ow);
        }
      }
    };
    std::memset(stage, pad, static_cast<std::size_t>(phases * pitch));
    for (std::int64_t c = 0; c < g.channels; ++c) {
      stage_channel(c);
      emit(stage, taps, ntaps, col + c * ntaps * ld + y0 * ow, ld, len, xs,
           pad_v);
    }
  }
}

#else  // !ADQ_AVX2_BUILD — non-x86 toolchains: the portable ops, so the
       // symbols still link.

backend::ActQuant quantize_act_avx2(const float* x, std::int64_t n, int bits,
                                    std::uint8_t* codes) {
  return backend::portable_backend().quantize_act(x, n, bits, codes);
}

void im2col_u8_avx2(const std::uint8_t* im, const ConvGeometry& g,
                    std::uint8_t* col, std::int64_t ld, std::uint8_t pad) {
  im2col_u8(im, g, col, ld, pad);
}

#endif

}  // namespace adq
