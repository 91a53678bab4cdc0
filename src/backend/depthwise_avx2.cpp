// AVX2 integer depthwise convolution for the 3x3, pad-1, stride-1/2 shape
// every MobileNet depthwise layer has; other geometries call the portable
// op.
//
// Per (image, channel) plane the kernel stages a zero_code-padded WINDOW of
// input rows into a bounded stack buffer, then runs a branch-free 9-tap
// loop over 8 output columns per vector:
//
//   * Staging: each window row is filled with zero_code and the in-range
//     input bytes are copied over it, so border taps read zero_code exactly
//     like the portable op's out-of-range branch, with no per-tap test.
//     Wide planes are cut into column tiles of kTileW outputs and tall ones
//     into row bands that fit kWindowBytes, so the buffer never grows with
//     the input.
//   * Stride 2 deinterleaves each staged row into an even and an odd phase
//     (one pshufb per 16 bytes); taps kx = 0/1/2 then read even[i],
//     odd[i], even[i + 1], and the tap loop is the same as for stride 1.
//   * Integer math: codes widen to int32 lanes, and each tap is one
//     vpmaddwd of the code against its weight broadcast into the low int16
//     of every lane (the high halves are zero), i.e. an exact code * w.
//     acc <= 9 * 255 * 255 and asum <= 9 * 255, so int32 is exact.
//   * Float epilogue: the portable evaluation order, lane for lane —
//     (ss * acc + row_term) + ca * asum, then ea * v + eb, then
//     _mm256_max_ps(zero, v), which returns v unless 0 > v, exactly like
//     std::max(v, 0.0f) on -0.0 and NaN. This file gets -mavx2 but not
//     -mfma, so nothing is contracted and the outputs are bit-identical to
//     the portable op (enforced by the conformance harness).
//
// Only this file is compiled with -mavx2 (ADQ_AVX2_BUILD); it is reached
// only through the avx2 and vnni tables, whose cpuid checks imply AVX2.
#include "backend/igemm_kernels.h"

#include <algorithm>

#include "backend/ops_portable.h"
#include "tensor/parallel.h"

#if defined(ADQ_AVX2_BUILD)
#include <immintrin.h>
#endif

namespace adq {

#if defined(ADQ_AVX2_BUILD)

namespace {

constexpr std::int64_t kTileW = 128;         // output columns per tile
constexpr std::int64_t kWindowBytes = 8192;  // staged input rows per band
// A stride-2 row holds two phases of kTileW + 8 codes each, so the window
// always fits at least one output row (3 input rows).
static_assert(kWindowBytes >= 3 * 2 * (kTileW + 8), "window too small");

__m128i load16(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}
void store16(std::uint8_t* p, __m128i v) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}
__m128i load8(const std::uint8_t* p) {
  return _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
}
void store8(std::uint8_t* p, __m128i v) {
  _mm_storel_epi64(reinterpret_cast<__m128i*>(p), v);
}

// Copies n bytes with (possibly overlapping) unaligned moves. Staged rows
// are tens of bytes long, where a libc memcpy/memset call costs more than
// the copy itself.
void copy_bytes(std::uint8_t* dst, const std::uint8_t* src, std::int64_t n) {
  if (n >= 16) {
    for (std::int64_t i = 0; i + 16 < n; i += 16) {
      store16(dst + i, load16(src + i));
    }
    store16(dst + n - 16, load16(src + n - 16));
  } else if (n >= 8) {
    store8(dst, load8(src));
    store8(dst + n - 8, load8(src + n - 8));
  } else {
    for (std::int64_t i = 0; i < n; ++i) dst[i] = src[i];
  }
}

// dst[i] = code at input column ix0 + i of `src` for i < n (n >= 16), and
// zero_code where the column (or the whole row, src == nullptr) lies
// outside the input.
void stage_row(const std::uint8_t* src, std::int64_t w, std::int64_t ix0,
               std::int64_t n, std::uint8_t zero_code, std::uint8_t* dst) {
  const __m128i zc = _mm_set1_epi8(static_cast<char>(zero_code));
  for (std::int64_t i = 0; i + 16 < n; i += 16) store16(dst + i, zc);
  store16(dst + n - 16, zc);
  const std::int64_t lo = std::max<std::int64_t>(ix0, 0);
  const std::int64_t hi = std::min(ix0 + n, w);
  if (src != nullptr && lo < hi) {
    copy_bytes(dst + (lo - ix0), src + lo, hi - lo);
  }
}

// Splits the 2 * half codes of src into even[0, half) and odd[0, half).
// half is a multiple of 8.
void deinterleave(const std::uint8_t* src, std::int64_t half,
                  std::uint8_t* even, std::uint8_t* odd) {
  const __m128i perm =
      _mm_setr_epi8(0, 2, 4, 6, 8, 10, 12, 14, 1, 3, 5, 7, 9, 11, 13, 15);
  for (std::int64_t i = 0; i < half; i += 8) {
    const __m128i v = _mm_shuffle_epi8(load16(src + 2 * i), perm);
    store8(even + i, v);
    store8(odd + i, _mm_unpackhi_epi64(v, v));
  }
}

// Eight codes widened to int32 lanes.
__m256i load_codes(const std::uint8_t* p) {
  return _mm256_cvtepu8_epi32(load8(p));
}

// Per-channel constants of the fused epilogue, broadcast once per plane.
struct Epilogue {
  __m256 ss, row_term, ca, ea, eb;
  bool relu;
};

// One 3x3 plane: plane [h, w] codes -> dst [oh, ow] floats.
void plane_3x3(const std::uint8_t* plane, std::int64_t h, std::int64_t w,
               std::int64_t stride, std::uint8_t zero_code,
               const std::uint8_t* wc, const Epilogue& e, std::int64_t oh,
               std::int64_t ow, float* dst) {
  alignas(32) std::uint8_t window[kWindowBytes];
  alignas(32) std::uint8_t row_tmp[2 * (kTileW + 8)];
  __m256i wv[9];
  for (int t = 0; t < 9; ++t) wv[t] = _mm256_set1_epi32(wc[t]);
  const __m256 zero = _mm256_setzero_ps();
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);

  for (std::int64_t x0 = 0; x0 < ow; x0 += kTileW) {
    const std::int64_t tw = std::min(kTileW, ow - x0);
    // Vectors cover round_up(tw, 8) columns; the +8 slack absorbs the
    // kx = 2 over-read (stride 1) and the even phase's extra code.
    const std::int64_t half = (tw + 7) / 8 * 8 + 8;
    const std::int64_t row_bytes = stride == 1 ? half : 2 * half;
    // Tap kx of output column i reads row[i + off[kx]].
    const std::int64_t off[3] = {0, stride == 1 ? 1 : half, 1 + (stride == 1)};
    const std::int64_t band = (kWindowBytes / row_bytes - 3) / stride + 1;
    const std::int64_t ix0 = x0 * stride - 1;

    for (std::int64_t y0 = 0; y0 < oh; y0 += band) {
      const std::int64_t th = std::min(band, oh - y0);
      const std::int64_t in_rows = (th - 1) * stride + 3;
      for (std::int64_t r = 0; r < in_rows; ++r) {
        const std::int64_t iy = y0 * stride - 1 + r;
        const std::uint8_t* src = iy >= 0 && iy < h ? plane + iy * w : nullptr;
        std::uint8_t* row = window + r * row_bytes;
        if (stride == 1) {
          stage_row(src, w, ix0, half, zero_code, row);
        } else {
          stage_row(src, w, ix0, 2 * half, zero_code, row_tmp);
          deinterleave(row_tmp, half, row, row + half);
        }
      }

      for (std::int64_t y = 0; y < th; ++y) {
        const std::uint8_t* rows[3];
        for (int ky = 0; ky < 3; ++ky) {
          rows[ky] = window + (y * stride + ky) * row_bytes;
        }
        float* out_row = dst + (y0 + y) * ow + x0;
        for (std::int64_t i = 0; i < tw; i += 8) {
          __m256i acc = _mm256_setzero_si256();
          __m256i asum = _mm256_setzero_si256();
          for (int ky = 0; ky < 3; ++ky) {
            for (int kx = 0; kx < 3; ++kx) {
              const __m256i c = load_codes(rows[ky] + i + off[kx]);
              acc = _mm256_add_epi32(acc,
                                     _mm256_madd_epi16(c, wv[ky * 3 + kx]));
              asum = _mm256_add_epi32(asum, c);
            }
          }
          __m256 v = _mm256_add_ps(
              _mm256_mul_ps(e.ss, _mm256_cvtepi32_ps(acc)), e.row_term);
          v = _mm256_add_ps(v, _mm256_mul_ps(e.ca, _mm256_cvtepi32_ps(asum)));
          v = _mm256_add_ps(_mm256_mul_ps(e.ea, v), e.eb);
          if (e.relu) v = _mm256_max_ps(zero, v);
          if (i + 8 <= tw) {
            _mm256_storeu_ps(out_row + i, v);
          } else {
            const __m256i mask = _mm256_cmpgt_epi32(
                _mm256_set1_epi32(static_cast<int>(tw - i)), lane);
            _mm256_maskstore_ps(out_row + i, mask, v);
          }
        }
      }
    }
  }
}

}  // namespace

void depthwise_int_avx2(const std::uint8_t* act, std::int64_t batch,
                        const std::uint8_t* w_codes,
                        const backend::DepthwiseArgs& a, float* out) {
  if (a.kernel != 3 || a.pad != 1 || (a.stride != 1 && a.stride != 2)) {
    backend::portable_backend().depthwise_int(act, batch, w_codes, a, out);
    return;
  }
  const std::int64_t C = a.channels, H = a.in_h, W = a.in_w;
  const std::int64_t oh = a.out_h(), ow = a.out_w();
  parallel_for(0, batch * C, [&](std::int64_t p0, std::int64_t p1) {
    for (std::int64_t p = p0; p < p1; ++p) {
      const std::int64_t c = p % C;
      float* dst = out + p * oh * ow;
      if (c >= a.active_channels) {
        std::fill(dst, dst + oh * ow, 0.0f);
        continue;
      }
      const auto ci = static_cast<std::size_t>(c);
      Epilogue e;
      e.ss = _mm256_set1_ps(a.ss);
      e.row_term = _mm256_set1_ps(
          a.cw * static_cast<float>(a.w_code_sums[ci]) + a.cc);
      e.ca = _mm256_set1_ps(a.ca);
      e.ea = _mm256_set1_ps(a.epi_scale[ci]);
      e.eb = _mm256_set1_ps(a.epi_shift[ci]);
      e.relu = a.relu;
      plane_3x3(act + p * H * W, H, W, a.stride, a.zero_code, w_codes + c * 9,
                e, oh, ow, dst);
    }
  });
}

#else  // !ADQ_AVX2_BUILD — non-x86 toolchains: the portable op, so the
       // symbol still links.

void depthwise_int_avx2(const std::uint8_t* act, std::int64_t batch,
                        const std::uint8_t* w_codes,
                        const backend::DepthwiseArgs& a, float* out) {
  backend::portable_backend().depthwise_int(act, batch, w_codes, a, out);
}

#endif

}  // namespace adq
