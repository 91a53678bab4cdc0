// Blocked, multithreaded single-precision GEMM.
//
// C = alpha * op(A) * op(B) + beta * C with row-major matrices. This is the
// hot loop for every convolution (via im2col) and linear layer in adq —
// training forward/backward and the inference engine's float stems — so it
// keeps an MR x NR accumulator block in registers and streams K. No
// external BLAS is used — the repo is self-contained by design.
//
// The structure mirrors the integer GEMM (gemm_int8.h): one blocked driver,
// detail::sgemm_blocked, owns the beta pre-scale, packing and the
// parallel split; the per-tile micro-kernel is the only per-ISA piece.
// sgemm_generic is that driver plus the portable micro-kernel, and the
// SIMD micro-kernels live in src/backend/ behind the backend registry.
#pragma once

#include <cstdint>

#include "tensor/tensor.h"

namespace adq {

/// C[m x n] = alpha * A[m x k] * B[k x n] + beta * C. Raw-pointer variant;
/// lda/ldb/ldc are row strides in elements. Runs the active backend's
/// sgemm (backend/registry.h, ADQ_BACKEND env); every backend's output is
/// bit-identical to sgemm_generic.
void sgemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
           std::int64_t k, float alpha, const float* a, std::int64_t lda,
           const float* b, std::int64_t ldb, float beta, float* c,
           std::int64_t ldc);

/// Portable blocked kernel with sgemm's contract: the reference every
/// other sgemm variant must match bit for bit. Called directly only by
/// the backend tables; everything else calls sgemm.
void sgemm_generic(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
                   std::int64_t k, float alpha, const float* a,
                   std::int64_t lda, const float* b, std::int64_t ldb,
                   float beta, float* c, std::int64_t ldc);

/// Tensor convenience wrapper: returns op(A) * op(B); A and B must be rank 2.
Tensor matmul(const Tensor& a, const Tensor& b, bool trans_a = false,
              bool trans_b = false);

namespace detail {

/// Register tile of every sgemm micro-kernel: kSgemmMr rows x kSgemmNr
/// columns of C.
inline constexpr std::int64_t kSgemmMr = 4;
inline constexpr std::int64_t kSgemmNr = 16;

/// Internal: one register tile, C[0..mr) x [0..nr) += A_panel * B_panel
/// (mr <= kSgemmMr, nr <= kSgemmNr). a holds mr rows of kc packed floats
/// (row stride lda, alpha already folded in); b holds kc rows of packed
/// floats (row stride ldb). For every element the kernel must start its
/// accumulator at +0.0f, add the products a[i][p] * b[p][j] in ascending p
/// as a separate multiply then add (never a fused multiply-add), and add
/// the accumulator into C once: that is the portable evaluation order, and
/// it is what keeps every variant bit-identical.
using SgemmMicroFn = void (*)(std::int64_t kc, const float* a,
                              std::int64_t lda, const float* b,
                              std::int64_t ldb, float* c, std::int64_t ldc,
                              std::int64_t mr, std::int64_t nr);

/// Internal: the one cache-blocking driver every sgemm variant runs under —
/// scales C by beta, then parallelises over row blocks of C, packing Kc x
/// Nc panels of op(A) (alpha folded in) and op(B) per block and handing
/// each register tile to `micro`.
void sgemm_blocked(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
                   std::int64_t k, float alpha, const float* a,
                   std::int64_t lda, const float* b, std::int64_t ldb,
                   float beta, float* c, std::int64_t ldc, SgemmMicroFn micro);

}  // namespace detail

}  // namespace adq
