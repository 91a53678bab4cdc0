// Byte-moving helpers shared by the AVX2 kernel translation units (the
// activation lowering and the depthwise conv stage short rows of u8 codes).
// Include only from a TU compiled with -mavx2 (ADQ_AVX2_BUILD): the
// functions are inline and use AVX2 intrinsics.
#pragma once

#include <immintrin.h>

#include <cstdint>
#include <cstring>

namespace adq::avx2 {

// W-byte vector moves: W = 32 is a ymm, 16/8/4 the low bytes of an xmm.
template <int W>
struct Bytes {
  using V = __m128i;
  static V load(const std::uint8_t* p) {
    if constexpr (W == 16) {
      return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    } else if constexpr (W == 8) {
      return _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
    } else {
      std::int32_t v;
      std::memcpy(&v, p, sizeof(v));
      return _mm_cvtsi32_si128(v);
    }
  }
  static void store(std::uint8_t* p, V v) {
    if constexpr (W == 16) {
      _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
    } else if constexpr (W == 8) {
      _mm_storel_epi64(reinterpret_cast<__m128i*>(p), v);
    } else {
      const std::int32_t s = _mm_cvtsi128_si32(v);
      std::memcpy(p, &s, sizeof(s));
    }
  }
  static V narrow(__m256i v) { return _mm256_castsi256_si128(v); }
  static V min(V a, V b) { return _mm_min_epu8(a, b); }
  static V max(V a, V b) { return _mm_max_epu8(a, b); }
  static V eq(V a, V b) { return _mm_cmpeq_epi8(a, b); }
  static V blend(V a, V b, V m) { return _mm_blendv_epi8(a, b, m); }
};

template <>
struct Bytes<32> {
  using V = __m256i;
  static V load(const std::uint8_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void store(std::uint8_t* p, V v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static V narrow(__m256i v) { return v; }
  static V min(V a, V b) { return _mm256_min_epu8(a, b); }
  static V max(V a, V b) { return _mm256_max_epu8(a, b); }
  static V eq(V a, V b) { return _mm256_cmpeq_epi8(a, b); }
  static V blend(V a, V b, V m) { return _mm256_blendv_epi8(a, b, m); }
};

// Calls chunk(q) for W-wide chunks covering [0, n), n >= W: full chunks,
// then one overlapping chunk ending at n, so nothing past n is touched.
template <int W, typename Fn>
void for_chunks(std::int64_t n, const Fn& chunk) {
  std::int64_t q = 0;
  for (; q + W < n; q += W) chunk(q);
  chunk(n - W);
}

template <int W>
void copy_chunks(std::uint8_t* dst, const std::uint8_t* src, std::int64_t n) {
  for_chunks<W>(n, [&](std::int64_t q) {
    Bytes<W>::store(dst + q, Bytes<W>::load(src + q));
  });
}

// dst[0, n) = src[0, n) with (possibly overlapping) unaligned moves. Staged
// rows are tens of bytes long, where a libc memcpy call costs more than the
// copy itself.
inline void copy_bytes(std::uint8_t* dst, const std::uint8_t* src,
                       std::int64_t n) {
  if (n >= 32) {
    copy_chunks<32>(dst, src, n);
  } else if (n >= 16) {
    copy_chunks<16>(dst, src, n);
  } else if (n >= 8) {
    copy_chunks<8>(dst, src, n);
  } else if (n >= 4) {
    copy_chunks<4>(dst, src, n);
  } else {
    for (std::int64_t q = 0; q < n; ++q) dst[q] = src[q];
  }
}

// Even and odd columns of one input row of w codes into ow-long phase rows,
// pad_code past the row's end.
inline void deinterleave_row(const std::uint8_t* src, std::int64_t w,
                             std::int64_t ow, std::uint8_t pad,
                             std::uint8_t* even, std::uint8_t* odd) {
  const __m256i perm = _mm256_setr_epi8(
      0, 2, 4, 6, 8, 10, 12, 14, 1, 3, 5, 7, 9, 11, 13, 15,  //
      0, 2, 4, 6, 8, 10, 12, 14, 1, 3, 5, 7, 9, 11, 13, 15);
  const __m128i perm16 = _mm256_castsi256_si128(perm);
  std::int64_t x = 0;
  for (; x + 16 <= ow && 2 * x + 32 <= w; x += 16) {
    // Per lane [even8 | odd8]; the qword permute gathers [even16 | odd16].
    const __m256i v = _mm256_permute4x64_epi64(
        _mm256_shuffle_epi8(Bytes<32>::load(src + 2 * x), perm),
        _MM_SHUFFLE(3, 1, 2, 0));
    Bytes<16>::store(even + x, _mm256_castsi256_si128(v));
    Bytes<16>::store(odd + x, _mm256_extracti128_si256(v, 1));
  }
  for (; x + 8 <= ow && 2 * x + 16 <= w; x += 8) {
    const __m128i v = _mm_shuffle_epi8(Bytes<16>::load(src + 2 * x), perm16);
    Bytes<8>::store(even + x, v);
    Bytes<8>::store(odd + x, _mm_srli_si128(v, 8));
  }
  for (; x + 4 <= ow && 2 * x + 8 <= w; x += 4) {
    const __m128i v = _mm_shuffle_epi8(Bytes<8>::load(src + 2 * x), perm16);
    Bytes<4>::store(even + x, v);
    Bytes<4>::store(odd + x, _mm_srli_si128(v, 8));
  }
  for (; x < ow; ++x) {
    even[x] = 2 * x < w ? src[2 * x] : pad;
    odd[x] = 2 * x + 1 < w ? src[2 * x + 1] : pad;
  }
}

}  // namespace adq::avx2
