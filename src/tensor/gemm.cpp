#include "tensor/gemm.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "backend/registry.h"
#include "tensor/parallel.h"

namespace adq {
namespace {

// Register block: 4 rows x 16 columns of C held in accumulators. This TU is
// built for the baseline ISA (no -mavx2, no -march=native), so gcc
// vectorises the portable micro-kernel below at SSE2 width only; the
// avx2/vnni backends supply a native 256-bit kernel for the same tile
// (src/backend/sgemm_avx2.cpp).
constexpr std::int64_t kMr = detail::kSgemmMr;
constexpr std::int64_t kNr = detail::kSgemmNr;
// Cache blocks: Kc*Nr floats of B-panel must fit in L1, Mc*Kc of A in L2.
constexpr std::int64_t kKc = 256;
constexpr std::int64_t kNc = 256;
constexpr std::int64_t kMc = 256;

// Portable detail::SgemmMicroFn. Computes a full MR x NR tile:
// C[0..mr) x [0..nr) += A_panel * B_panel. a_panel: mr rows with stride lda
// (already offset); b_panel: kc rows of nr columns at row stride ldb, never
// read past column nr.
void micro_kernel(std::int64_t kc, const float* a, std::int64_t lda,
                  const float* b, std::int64_t ldb, float* c, std::int64_t ldc,
                  std::int64_t mr, std::int64_t nr) {
  if (mr == kMr && nr == kNr) {
    float acc[kMr][kNr] = {};
    for (std::int64_t p = 0; p < kc; ++p) {
      const float* bp = b + p * ldb;
      for (std::int64_t i = 0; i < kMr; ++i) {
        const float av = a[i * lda + p];
        for (std::int64_t j = 0; j < kNr; ++j) acc[i][j] += av * bp[j];
      }
    }
    for (std::int64_t i = 0; i < kMr; ++i) {
      float* cp = c + i * ldc;
      for (std::int64_t j = 0; j < kNr; ++j) cp[j] += acc[i][j];
    }
    return;
  }
  // Edge tile: same algorithm, runtime bounds.
  float acc[kMr][kNr] = {};
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* bp = b + p * ldb;
    for (std::int64_t i = 0; i < mr; ++i) {
      const float av = a[i * lda + p];
      for (std::int64_t j = 0; j < nr; ++j) acc[i][j] += av * bp[j];
    }
  }
  for (std::int64_t i = 0; i < mr; ++i) {
    float* cp = c + i * ldc;
    for (std::int64_t j = 0; j < nr; ++j) cp[j] += acc[i][j];
  }
}

// Row copies for a plain operand: dst[i][j] = src[i][j], rows x cols,
// destination row stride ldd.
void copy_block(const float* src, std::int64_t lds, std::int64_t rows,
                std::int64_t cols, float* dst, std::int64_t ldd) {
  for (std::int64_t i = 0; i < rows; ++i) {
    std::copy(src + i * lds, src + i * lds + cols, dst + i * ldd);
  }
}

// Cache-blocked transpose for a transposed operand: dst[i][j] =
// src[j][i], rows x cols. 16 x 16 tiles keep both the strided source reads
// and the destination writes inside a few cache lines each, where a plain
// double loop walks a whole source column per destination row.
void transpose_block(const float* src, std::int64_t lds, std::int64_t rows,
                     std::int64_t cols, float* dst, std::int64_t ldd) {
  constexpr std::int64_t kTile = 16;
  for (std::int64_t i0 = 0; i0 < rows; i0 += kTile) {
    const std::int64_t i1 = std::min(rows, i0 + kTile);
    for (std::int64_t j0 = 0; j0 < cols; j0 += kTile) {
      const std::int64_t j1 = std::min(cols, j0 + kTile);
      for (std::int64_t i = i0; i < i1; ++i) {
        for (std::int64_t j = j0; j < j1; ++j) {
          dst[i * ldd + j] = src[j * lds + i];
        }
      }
    }
  }
}

}  // namespace

namespace detail {

void sgemm_blocked(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
                   std::int64_t k, float alpha, const float* a,
                   std::int64_t lda, const float* b, std::int64_t ldb,
                   float beta, float* c, std::int64_t ldc,
                   SgemmMicroFn micro) {
  if (m <= 0 || n <= 0) return;

  // Scale C by beta first so the accumulation loop is pure +=.
  if (beta != 1.0f) {
    for (std::int64_t i = 0; i < m; ++i) {
      float* row = c + i * ldc;
      if (beta == 0.0f) {
        std::fill(row, row + n, 0.0f);
      } else {
        for (std::int64_t j = 0; j < n; ++j) row[j] *= beta;
      }
    }
  }
  if (k <= 0 || alpha == 0.0f) return;

  // Parallelise over row blocks of C; each task packs its own A panels
  // (and B panels, when B is transposed). The panels are per-thread
  // grow-once scratch: a serving loop calls sgemm once per float-path
  // layer per forward, and those calls must not allocate (the engine's
  // zero-allocation steady-state contract). Blocked for the caller's
  // thread budget, not the whole machine: a serving worker on a 2-thread
  // budget wants 4 fat row blocks, not the 32 slivers a pool-wide split
  // would produce, and a one-thread budget runs up to kMc rows as one
  // block so every B panel is walked once.
  const int threads = parallel_effective_threads();
  const std::int64_t row_block =
      threads == 1
          ? std::min(kMc, (m + kMr - 1) / kMr * kMr)
          : std::max<std::int64_t>(
                kMr, (m + threads * 2 - 1) / (threads * 2) / kMr * kMr);
  parallel_for(0, (m + row_block - 1) / row_block, [&](std::int64_t tb, std::int64_t te) {
    thread_local std::vector<float> a_buf, b_buf;
    if (static_cast<std::int64_t>(a_buf.size()) < row_block * kKc) {
      a_buf.resize(static_cast<std::size_t>(row_block * kKc));
    }
    if (trans_b && static_cast<std::int64_t>(b_buf.size()) < kKc * kNc) {
      b_buf.resize(static_cast<std::size_t>(kKc * kNc));
    }
    float* const a_pack = a_buf.data();
    for (std::int64_t t = tb; t < te; ++t) {
      const std::int64_t i0 = t * row_block;
      const std::int64_t mc = std::min(row_block, m - i0);
      for (std::int64_t p0 = 0; p0 < k; p0 += kKc) {
        const std::int64_t kc = std::min(kKc, k - p0);
        // op(A) block [i0, i0+mc) x [p0, p0+kc) -> a_pack, row-major mc x kc.
        if (trans_a) {
          transpose_block(a + p0 * lda + i0, lda, mc, kc, a_pack, kc);
        } else {
          copy_block(a + i0 * lda + p0, lda, mc, kc, a_pack, kc);
        }
        if (alpha != 1.0f) {
          for (std::int64_t idx = 0; idx < mc * kc; ++idx) a_pack[idx] *= alpha;
        }
        for (std::int64_t j0 = 0; j0 < n; j0 += kNc) {
          const std::int64_t nc = std::min(kNc, n - j0);
          // op(B) block [p0, p0+kc) x [j0, j0+nc): a plain B is read in
          // place at its own row stride; a transposed one is packed
          // row-major kc x nc first.
          const float* b_panel = b + p0 * ldb + j0;
          std::int64_t ldp = ldb;
          if (trans_b) {
            transpose_block(b + j0 * ldb + p0, ldb, kc, nc, b_buf.data(), nc);
            b_panel = b_buf.data();
            ldp = nc;
          }
          for (std::int64_t jr = 0; jr < nc; jr += kNr) {
            const std::int64_t nr = std::min(kNr, nc - jr);
            for (std::int64_t ir = 0; ir < mc; ir += kMr) {
              const std::int64_t mr = std::min(kMr, mc - ir);
              micro(kc, a_pack + ir * kc, kc, b_panel + jr, ldp,
                    c + (i0 + ir) * ldc + (j0 + jr), ldc, mr, nr);
            }
          }
        }
      }
    }
  });
}

}  // namespace detail

void sgemm_generic(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
                   std::int64_t k, float alpha, const float* a,
                   std::int64_t lda, const float* b, std::int64_t ldb,
                   float beta, float* c, std::int64_t ldc) {
  detail::sgemm_blocked(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta,
                        c, ldc, &micro_kernel);
}

void sgemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
           std::int64_t k, float alpha, const float* a, std::int64_t lda,
           const float* b, std::int64_t ldb, float beta, float* c,
           std::int64_t ldc) {
  backend::active().sgemm(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb,
                          beta, c, ldc);
}

Tensor matmul(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b) {
  if (a.shape().rank() != 2 || b.shape().rank() != 2) {
    throw std::invalid_argument("matmul: both operands must be rank 2");
  }
  const std::int64_t m = trans_a ? a.shape().dim(1) : a.shape().dim(0);
  const std::int64_t ka = trans_a ? a.shape().dim(0) : a.shape().dim(1);
  const std::int64_t kb = trans_b ? b.shape().dim(1) : b.shape().dim(0);
  const std::int64_t n = trans_b ? b.shape().dim(0) : b.shape().dim(1);
  if (ka != kb) {
    throw std::invalid_argument("matmul: inner dimensions differ: " +
                                a.shape().to_string() + " x " + b.shape().to_string());
  }
  Tensor c(Shape{m, n});
  sgemm(trans_a, trans_b, m, n, ka, 1.0f, a.data(), a.shape().dim(1), b.data(),
        b.shape().dim(1), 0.0f, c.data(), n);
  return c;
}

}  // namespace adq
