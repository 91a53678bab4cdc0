// AVX2 micro-kernel for the blocked float GEMM (see tensor/gemm.h).
//
// Only the 4 x 16 register tile lives here; the beta pre-scale, the alpha
// fold into the A pack, the Kc x Nc blocking, the row-block split and the
// pack panels are detail::sgemm_blocked's, shared with sgemm_generic.
//
// Each row of the tile is two ymm accumulators (16 floats). Per k step the
// kernel loads one 16-float row of the B panel, broadcasts the row's A
// element, and does _mm256_mul_ps then _mm256_add_ps into the accumulators
// — for every element of C the same sequence the portable kernel runs:
// accumulator from +0.0f, acc + a*b in ascending p, then one add into C
// per Kc block. This file gets -mavx2 but not -mfma, so nothing is
// contracted and the output is bit-identical to sgemm_generic (enforced
// bytewise by the conformance harness). Row tails (mr < 4) are a template
// row count; column tails (nr < 16) use maskload/maskstore, and a tail of
// at most 8 columns never touches the second vector's addresses at all.
//
// Only this file is compiled with -mavx2 (ADQ_AVX2_BUILD); it is reached
// only through the avx2 and vnni tables, whose cpuid checks imply AVX2.
#include "backend/igemm_kernels.h"

#include "tensor/gemm.h"

#if defined(ADQ_AVX2_BUILD)
#include <immintrin.h>
#endif

namespace adq {

#if defined(ADQ_AVX2_BUILD)

namespace {

static_assert(detail::kSgemmMr == 4 && detail::kSgemmNr == 16,
              "the AVX2 tile is 4 rows x two 8-float vectors");

// Lane mask selecting the first `lanes` (0..8) of a ymm.
__m256i lane_mask(std::int64_t lanes) {
  const __m256i idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(lanes)), idx);
}

// MR rows x NV vectors of C. kMasked: the last vector covers only the lanes
// in `tail` (B and C are read and written through the mask).
template <int MR, int NV, bool kMasked>
void tile(std::int64_t kc, const float* a, std::int64_t lda, const float* b,
          std::int64_t ldb, float* c, std::int64_t ldc, __m256i tail) {
  __m256 acc[MR][NV];
  for (int i = 0; i < MR; ++i) {
    for (int v = 0; v < NV; ++v) acc[i][v] = _mm256_setzero_ps();
  }
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* bp = b + p * ldb;
    __m256 bv[NV];
    for (int v = 0; v < NV; ++v) {
      bv[v] = kMasked && v == NV - 1 ? _mm256_maskload_ps(bp + 8 * v, tail)
                                     : _mm256_loadu_ps(bp + 8 * v);
    }
    for (int i = 0; i < MR; ++i) {
      const __m256 av = _mm256_broadcast_ss(a + i * lda + p);
      for (int v = 0; v < NV; ++v) {
        acc[i][v] = _mm256_add_ps(acc[i][v], _mm256_mul_ps(av, bv[v]));
      }
    }
  }
  for (int i = 0; i < MR; ++i) {
    float* cp = c + i * ldc;
    for (int v = 0; v < NV; ++v) {
      if (kMasked && v == NV - 1) {
        const __m256 cv = _mm256_maskload_ps(cp + 8 * v, tail);
        _mm256_maskstore_ps(cp + 8 * v, tail, _mm256_add_ps(cv, acc[i][v]));
      } else {
        const __m256 cv = _mm256_loadu_ps(cp + 8 * v);
        _mm256_storeu_ps(cp + 8 * v, _mm256_add_ps(cv, acc[i][v]));
      }
    }
  }
}

template <int MR>
void tile_rows(std::int64_t kc, const float* a, std::int64_t lda,
               const float* b, std::int64_t ldb, float* c, std::int64_t ldc,
               std::int64_t nr) {
  if (nr == detail::kSgemmNr) {
    tile<MR, 2, false>(kc, a, lda, b, ldb, c, ldc, _mm256_setzero_si256());
  } else if (nr > 8) {
    tile<MR, 2, true>(kc, a, lda, b, ldb, c, ldc, lane_mask(nr - 8));
  } else {
    tile<MR, 1, true>(kc, a, lda, b, ldb, c, ldc, lane_mask(nr));
  }
}

// detail::SgemmMicroFn.
void micro_kernel_avx2(std::int64_t kc, const float* a, std::int64_t lda,
                       const float* b, std::int64_t ldb, float* c,
                       std::int64_t ldc, std::int64_t mr, std::int64_t nr) {
  switch (mr) {
    case 4: tile_rows<4>(kc, a, lda, b, ldb, c, ldc, nr); break;
    case 3: tile_rows<3>(kc, a, lda, b, ldb, c, ldc, nr); break;
    case 2: tile_rows<2>(kc, a, lda, b, ldb, c, ldc, nr); break;
    default: tile_rows<1>(kc, a, lda, b, ldb, c, ldc, nr); break;
  }
}

}  // namespace

void sgemm_avx2(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
                std::int64_t k, float alpha, const float* a, std::int64_t lda,
                const float* b, std::int64_t ldb, float beta, float* c,
                std::int64_t ldc) {
  detail::sgemm_blocked(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta,
                        c, ldc, &micro_kernel_avx2);
}

#else  // !ADQ_AVX2_BUILD — non-x86 toolchains: fall through to the
       // portable kernel so the symbol still links.

void sgemm_avx2(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
                std::int64_t k, float alpha, const float* a, std::int64_t lda,
                const float* b, std::int64_t ldb, float beta, float* c,
                std::int64_t ldc) {
  sgemm_generic(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
}

#endif

}  // namespace adq
