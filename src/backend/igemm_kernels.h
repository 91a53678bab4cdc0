// Private declarations for the SIMD kernel translation units in this
// directory. These symbols are implementation details of the avx2/vnni
// backends — nothing outside src/backend/ may reference them; every other
// caller goes through backend::active().
#pragma once

#include <cstdint>

#include "backend/backend.h"

namespace adq {

/// True when the running CPU can execute the AVX2 kernel (and the TU was
/// compiled with AVX2 support).
bool igemm_avx2_available();

/// AVX2 vpmaddwd kernel. Bit-identical to igemm_u8_generic.
void igemm_u8_avx2(std::int64_t m, std::int64_t n, std::int64_t k,
                   const std::uint8_t* a, std::int64_t lda,
                   const std::uint8_t* b, std::int64_t ldb, std::int32_t* c,
                   std::int64_t ldc);

/// True when the running CPU can execute the AVX2 sub-byte kernels (same
/// ISA requirement as the int8 kernel; kept separate so a narrower tier
/// could later split them).
bool igemm_subbyte_avx2_available();

/// AVX2 nibble-packed int4-weight kernel (vpmaddubsw over in-register
/// expanded nibbles). A rows are byte-aligned packed, lda in bytes.
/// Bit-identical to the portable igemm_u8w4 reference.
void igemm_u8w4_avx2(std::int64_t m, std::int64_t n, std::int64_t k,
                     const std::uint8_t* a_packed, std::int64_t lda_bytes,
                     const std::uint8_t* b, std::int64_t ldb, std::int32_t* c,
                     std::int64_t ldc);

/// AVX2 crumb-serial int2-weight kernel. Same contract at 2-bit cells.
void igemm_u8w2_avx2(std::int64_t m, std::int64_t n, std::int64_t k,
                     const std::uint8_t* a_packed, std::int64_t lda_bytes,
                     const std::uint8_t* b, std::int64_t ldb, std::int32_t* c,
                     std::int64_t ldc);

/// AVX2 activation-slot pack: same little-endian cell layout and chunked
/// parallel contract as the portable act_pack, vectorized for the 4-bit
/// (nibble merge) and 2-bit (two-stage merge) cells the activation planner
/// emits; 1/8-bit cells take the scalar/memcpy path. Bit-identical to the
/// scalar pack_codes. Gated on igemm_subbyte_avx2_available().
void act_pack_avx2(const std::uint8_t* codes, std::int64_t count,
                   int cell_bits, std::uint8_t* packed);

/// Inverse of act_pack_avx2 (nibble/crumb split + byte interleave).
void act_unpack_avx2(const std::uint8_t* packed, std::int64_t count,
                     int cell_bits, std::uint8_t* codes);

/// AVX2 integer depthwise conv (backend::DepthwiseIntFn): a vectorised
/// 9-tap loop over a zero_code-padded stack window for kernel 3, pad 1,
/// stride 1 or 2; any other geometry runs the portable op. Bit-identical
/// to the portable depthwise_int. Like act_pack_avx2, it is shared by the
/// avx2 and vnni tables, whose cpuid checks both imply AVX2.
void depthwise_int_avx2(const std::uint8_t* act, std::int64_t batch,
                        const std::uint8_t* w_codes,
                        const backend::DepthwiseArgs& args, float* out);

/// AVX2 float GEMM (backend::SgemmFn): detail::sgemm_blocked with a 4 x 16
/// micro-kernel of two ymm accumulators per row, multiply then add in the
/// portable order (no FMA), masked loads/stores for nr < 16 tails.
/// Bit-identical to sgemm_generic. Shared by the avx2 and vnni tables,
/// whose cpuid checks both imply AVX2.
void sgemm_avx2(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
                std::int64_t k, float alpha, const float* a, std::int64_t lda,
                const float* b, std::int64_t ldb, float beta, float* c,
                std::int64_t ldc);

/// True when the running CPU can execute the AVX-512 VNNI kernel.
bool igemm_vnni_available();

/// AVX-512 VNNI vpdpbusd kernel. Bit-identical to igemm_u8_generic.
void igemm_u8_vnni(std::int64_t m, std::int64_t n, std::int64_t k,
                   const std::uint8_t* a, std::int64_t lda,
                   const std::uint8_t* b, std::int64_t ldb, std::int32_t* c,
                   std::int64_t ldc);

/// VNNI nibble-packed int4-weight kernel: packed codes expand straight to
/// s8 (they fit without the -128 offset, so no colsum correction), then the
/// same vpdpbusd micro-kernels run. A rows byte-aligned packed, lda bytes.
void igemm_u8w4_vnni(std::int64_t m, std::int64_t n, std::int64_t k,
                     const std::uint8_t* a_packed, std::int64_t lda_bytes,
                     const std::uint8_t* b, std::int64_t ldb, std::int32_t* c,
                     std::int64_t ldc);

/// VNNI crumb-packed int2-weight kernel. Same contract at 2-bit cells.
void igemm_u8w2_vnni(std::int64_t m, std::int64_t n, std::int64_t k,
                     const std::uint8_t* a_packed, std::int64_t lda_bytes,
                     const std::uint8_t* b, std::int64_t ldb, std::int32_t* c,
                     std::int64_t ldc);

}  // namespace adq
