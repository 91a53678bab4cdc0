#include "backend/conformance.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "backend/ops_portable.h"
#include "quant/quantizer.h"
#include "tensor/bitpack.h"
#include "tensor/gemm_int8.h"
#include "tensor/rng.h"

namespace adq::backend {
namespace {

// Sentinel values pre-filled into every output buffer on BOTH sides of a
// comparison. Untouched bytes (stride gaps, rows past m, the tail past a
// case's logical extent) then compare equal only if the backend under test
// left exactly the bytes the reference left — an out-of-bounds write or a
// missed stride shows up as loudly as a wrong value.
constexpr std::uint8_t kSentinelU8 = 0xA5;
constexpr std::int32_t kSentinelI32 = 0x5AA55AA5;
constexpr float kSentinelF32 = -12345.678f;

constexpr double kNmseBound = 1e-6;

int draw_bits(Rng& rng) {
  constexpr int kChoices[] = {8, 4, 2};
  return kChoices[rng.uniform_int(0, 2)];
}

void fill_codes(Rng& rng, std::uint8_t* p, std::int64_t n, int bits) {
  const std::int64_t hi = quant::max_code(bits);
  for (std::int64_t i = 0; i < n; ++i) {
    p[i] = static_cast<std::uint8_t>(rng.uniform_int(0, hi));
  }
}

void fill_floats(Rng& rng, float* p, std::int64_t n, float lo, float hi) {
  for (std::int64_t i = 0; i < n; ++i) p[i] = rng.uniform(lo, hi);
}

std::string shape2(std::int64_t a, std::int64_t b) {
  return std::to_string(a) + "x" + std::to_string(b);
}

// --- comparison ------------------------------------------------------------

template <typename T>
bool compare_exact(const std::vector<T>& ref, const std::vector<T>& got,
                   CaseResult* r) {
  if (std::memcmp(ref.data(), got.data(), ref.size() * sizeof(T)) == 0) {
    return true;
  }
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (std::memcmp(&ref[i], &got[i], sizeof(T)) != 0) {
      r->ok = false;
      r->detail = "first mismatch at flat index " + std::to_string(i) +
                  ": ref=" + std::to_string(static_cast<double>(ref[i])) +
                  " got=" + std::to_string(static_cast<double>(got[i]));
      return false;
    }
  }
  return true;
}

bool compare_nmse(const std::vector<float>& ref, const std::vector<float>& got,
                  CaseResult* r) {
  double num = 0.0, den = 0.0;
  std::size_t worst = 0;
  double worst_diff = -1.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const double d = static_cast<double>(ref[i]) - static_cast<double>(got[i]);
    num += d * d;
    den += static_cast<double>(ref[i]) * static_cast<double>(ref[i]);
    if (d * d > worst_diff) {
      worst_diff = d * d;
      worst = i;
    }
  }
  const double nmse = num / (den + 1e-30);
  r->max_err = nmse;
  if (!(nmse <= kNmseBound) || !std::isfinite(nmse)) {
    r->ok = false;
    r->detail = "NMSE " + std::to_string(nmse) + " exceeds bound, worst at " +
                std::to_string(worst) + ": ref=" + std::to_string(ref[worst]) +
                " got=" + std::to_string(got[worst]);
    return false;
  }
  return true;
}

// --- per-op cases ----------------------------------------------------------

CaseResult igemm_case(std::uint64_t seed, const Backend& test) {
  Rng rng(seed);
  CaseResult r;
  const std::int64_t m = rng.uniform_int(1, 40);
  // Mostly small, sometimes wide enough (n >= 2*Nc = 512) to exercise the
  // driver's column-split path the batched conv slabs take.
  const std::int64_t n =
      rng.coin(0.15) ? rng.uniform_int(513, 700) : rng.uniform_int(1, 96);
  // k crossing Kc = 256 covers the multi-panel accumulation path.
  const std::int64_t k =
      rng.coin(0.2) ? rng.uniform_int(257, 320) : rng.uniform_int(1, 128);
  const int bits_a = draw_bits(rng);
  const int bits_b = draw_bits(rng);
  const std::int64_t lda = k + rng.uniform_int(0, 5);
  const std::int64_t ldb = n + rng.uniform_int(0, 5);
  const std::int64_t ldc = n + rng.uniform_int(0, 5);
  r.desc = "igemm " + std::to_string(m) + "x" + std::to_string(n) + "x" +
           std::to_string(k) + " bits=" + std::to_string(bits_a) + "/" +
           std::to_string(bits_b) + " ld=" + std::to_string(lda) + "," +
           std::to_string(ldb) + "," + std::to_string(ldc);

  std::vector<std::uint8_t> a(static_cast<std::size_t>(m * lda));
  std::vector<std::uint8_t> b(static_cast<std::size_t>(k * ldb));
  fill_codes(rng, a.data(), m * lda, bits_a);
  fill_codes(rng, b.data(), k * ldb, bits_b);

  std::vector<std::int32_t> c_ref(static_cast<std::size_t>(m * ldc),
                                  kSentinelI32);
  std::vector<std::int32_t> c_got(c_ref);
  portable_backend().igemm(m, n, k, a.data(), lda, b.data(), ldb, c_ref.data(),
                           ldc);
  test.igemm(m, n, k, a.data(), lda, b.data(), ldb, c_got.data(), ldc);
  compare_exact(c_ref, c_got, &r);
  return r;
}

// Shared sub-byte weight-GEMM case: cell is 4 (igemm_u8w4) or 2
// (igemm_u8w2). Weight codes are generated unpacked, packed row-aligned
// into a buffer pre-filled with garbage (so stride-slack bytes and row tail
// bits act like sentinels: a kernel reading codes it shouldn't produces a
// wrong accumulator), and the case is checked two ways — the portable
// reference must equal an in-case unpack + igemm_u8_generic ground truth,
// and the backend under test must equal the portable reference bit for bit.
CaseResult igemm_packed_case(std::uint64_t seed, const Backend& test,
                             int cell) {
  Rng rng(seed);
  CaseResult r;
  const std::int64_t m = rng.uniform_int(1, 40);
  // Wide-n draws exercise the driver's column-split path; everything else
  // lands on odd n/k not divisible by the quad depth or the 16-wide panel.
  const std::int64_t n =
      rng.coin(0.15) ? rng.uniform_int(513, 700) : rng.uniform_int(1, 96);
  const std::int64_t k =
      rng.coin(0.2) ? rng.uniform_int(257, 320) : rng.uniform_int(1, 128);
  // Weights span the full cell range on most draws, a narrower bit-width
  // (a 3-bit layer in 4-bit cells, a 1-bit layer in 2-bit cells) sometimes.
  const int bits_w = rng.coin(0.3) ? cell - 1 : cell;
  const int bits_b = draw_bits(rng);
  const std::int64_t lda_bytes =
      packed_row_bytes(k, cell) + rng.uniform_int(0, 5);
  const std::int64_t ldb = n + rng.uniform_int(0, 5);
  const std::int64_t ldc = n + rng.uniform_int(0, 5);
  const auto op_fn = cell == 4 ? test.igemm_w4 : test.igemm_w2;
  const auto ref_fn =
      cell == 4 ? portable_backend().igemm_w4 : portable_backend().igemm_w2;
  r.desc = std::string(cell == 4 ? "igemm_u8w4 " : "igemm_u8w2 ") +
           std::to_string(m) + "x" + std::to_string(n) + "x" +
           std::to_string(k) + " bits=" + std::to_string(bits_w) + "/" +
           std::to_string(bits_b) + " lda_bytes=" + std::to_string(lda_bytes) +
           " ld=" + std::to_string(ldb) + "," + std::to_string(ldc);

  std::vector<std::uint8_t> codes(static_cast<std::size_t>(m * k));
  fill_codes(rng, codes.data(), m * k, bits_w);
  std::vector<std::uint8_t> a(static_cast<std::size_t>(m * lda_bytes));
  fill_codes(rng, a.data(), m * lda_bytes, 8);  // slack bytes stay garbage
  for (std::int64_t i = 0; i < m; ++i) {
    pack_codes(codes.data() + i * k, k, cell, a.data() + i * lda_bytes);
  }
  std::vector<std::uint8_t> b(static_cast<std::size_t>(k * ldb));
  fill_codes(rng, b.data(), k * ldb, bits_b);

  std::vector<std::int32_t> c_truth(static_cast<std::size_t>(m * ldc),
                                    kSentinelI32);
  std::vector<std::int32_t> c_ref(c_truth);
  std::vector<std::int32_t> c_got(c_truth);
  igemm_u8_generic(m, n, k, codes.data(), k, b.data(), ldb, c_truth.data(),
                   ldc);
  ref_fn(m, n, k, a.data(), lda_bytes, b.data(), ldb, c_ref.data(), ldc);
  if (!compare_exact(c_truth, c_ref, &r)) {
    r.detail = "portable reference disagrees with unpacked ground truth: " +
               r.detail;
    return r;
  }
  op_fn(m, n, k, a.data(), lda_bytes, b.data(), ldb, c_got.data(), ldc);
  compare_exact(c_ref, c_got, &r);
  return r;
}

// Draws a conv geometry with out_h/out_w >= 1. A 0.3 coin pins the fused
// k3/s1/p1 shape so the specialised im2col template path is always covered;
// its maps span 1..34, and half of them are the engine's square 2..32 maps.
ConvGeometry draw_geometry(Rng& rng, std::int64_t channels) {
  ConvGeometry g;
  g.channels = channels;
  if (rng.coin(0.3)) {
    g.kernel_h = g.kernel_w = 3;
    g.stride = 1;
    g.pad = 1;
    if (rng.coin(0.5)) {
      constexpr std::int64_t kMaps[] = {2, 4, 8, 16, 32};
      g.in_h = g.in_w = kMaps[rng.uniform_int(0, 4)];
    } else {
      g.in_h = rng.uniform_int(1, 34);
      g.in_w = rng.uniform_int(1, 34);
    }
    return g;
  }
  constexpr std::int64_t kKernels[] = {1, 2, 3, 5};
  g.kernel_h = g.kernel_w = kKernels[rng.uniform_int(0, 3)];
  g.stride = rng.uniform_int(1, 2);
  g.pad = rng.uniform_int(0, 2);
  g.in_h = g.kernel_h + rng.uniform_int(0, 11);
  g.in_w = g.kernel_w + rng.uniform_int(0, 11);
  return g;
}

std::string geom_desc(const ConvGeometry& g) {
  return "c=" + std::to_string(g.channels) + " " + shape2(g.in_h, g.in_w) +
         " k=" + std::to_string(g.kernel_h) +
         " s=" + std::to_string(g.stride) + " p=" + std::to_string(g.pad);
}

CaseResult im2col_u8_case(std::uint64_t seed, const Backend& test) {
  Rng rng(seed);
  CaseResult r;
  const ConvGeometry g = draw_geometry(rng, rng.uniform_int(1, 8));
  const int bits = draw_bits(rng);
  const std::int64_t ohw = g.out_h() * g.out_w();
  const std::int64_t col_stride = ohw + rng.uniform_int(0, 7);
  const std::uint8_t pad_code =
      static_cast<std::uint8_t>(rng.uniform_int(0, quant::max_code(bits)));
  r.desc = "im2col_u8 " + geom_desc(g) + " bits=" + std::to_string(bits) +
           " col_stride=" + std::to_string(col_stride);

  std::vector<std::uint8_t> im(
      static_cast<std::size_t>(g.channels * g.in_h * g.in_w));
  fill_codes(rng, im.data(), static_cast<std::int64_t>(im.size()), bits);

  std::vector<std::uint8_t> col_ref(
      static_cast<std::size_t>(g.patch_size() * col_stride), kSentinelU8);
  std::vector<std::uint8_t> col_got(col_ref);
  portable_backend().im2col_u8(im.data(), g, col_ref.data(), col_stride,
                               pad_code);
  test.im2col_u8(im.data(), g, col_got.data(), col_stride, pad_code);
  compare_exact(col_ref, col_got, &r);
  return r;
}

CaseResult im2col_f32_case(std::uint64_t seed, const Backend& test) {
  Rng rng(seed);
  CaseResult r;
  const ConvGeometry g = draw_geometry(rng, rng.uniform_int(1, 8));
  const std::int64_t ohw = g.out_h() * g.out_w();
  const std::int64_t col_stride = ohw + rng.uniform_int(0, 7);
  r.desc = "im2col_f32 " + geom_desc(g) +
           " col_stride=" + std::to_string(col_stride);

  std::vector<float> im(static_cast<std::size_t>(g.channels * g.in_h * g.in_w));
  fill_floats(rng, im.data(), static_cast<std::int64_t>(im.size()), -2.0f,
              2.0f);

  std::vector<float> col_ref(
      static_cast<std::size_t>(g.patch_size() * col_stride), kSentinelF32);
  std::vector<float> col_got(col_ref);
  portable_backend().im2col_f32(im.data(), g, col_ref.data(), col_stride);
  test.im2col_f32(im.data(), g, col_got.data(), col_stride);
  compare_nmse(col_ref, col_got, &r);
  return r;
}

// Shared integer-depthwise case body; bits/stride < 0 mean "draw randomly".
CaseResult depthwise_int_case(std::uint64_t seed, const Backend& test,
                              int pinned_bits, int pinned_stride) {
  Rng rng(seed);
  CaseResult r;
  DepthwiseArgs a;
  // Up to 16 channels and widths up to kernel + 40 (odd and even, so stride
  // 2 sees both parities): output rows then span several 8-lane vectors
  // plus a tail, the shape the SIMD kernels' border and tail paths need.
  // Kernels 1 and 5, and pad 0 at kernel 3, keep the portable fallback
  // covered.
  a.channels = rng.uniform_int(1, 16);
  constexpr std::int64_t kKernels[] = {1, 3, 5};
  a.kernel = kKernels[rng.uniform_int(0, 2)];
  a.stride = pinned_stride > 0 ? pinned_stride : rng.uniform_int(1, 2);
  a.pad = rng.uniform_int(0, a.kernel / 2);
  a.in_h = a.kernel + rng.uniform_int(0, 9);
  a.in_w = a.kernel + rng.uniform_int(0, 40);
  a.active_channels =
      rng.coin(0.2) ? rng.uniform_int(0, a.channels) : a.channels;
  a.relu = rng.coin();
  const std::int64_t batch = rng.uniform_int(1, 3);
  const int bits_a = pinned_bits > 0 ? pinned_bits : draw_bits(rng);
  const int bits_w = pinned_bits > 0 ? pinned_bits : draw_bits(rng);
  r.desc = "depthwise_int b=" + std::to_string(batch) + " c=" +
           std::to_string(a.channels) + " " + shape2(a.in_h, a.in_w) +
           " k=" + std::to_string(a.kernel) + " s=" + std::to_string(a.stride) +
           " p=" + std::to_string(a.pad) + " bits=" + std::to_string(bits_a) +
           "/" + std::to_string(bits_w) +
           " active=" + std::to_string(a.active_channels);

  const std::int64_t C = a.channels, K = a.kernel * a.kernel;
  std::vector<std::uint8_t> act(
      static_cast<std::size_t>(batch * C * a.in_h * a.in_w));
  std::vector<std::uint8_t> w(static_cast<std::size_t>(C * K));
  fill_codes(rng, act.data(), static_cast<std::int64_t>(act.size()), bits_a);
  fill_codes(rng, w.data(), static_cast<std::int64_t>(w.size()), bits_w);
  a.zero_code =
      static_cast<std::uint8_t>(rng.uniform_int(0, quant::max_code(bits_a)));

  // The correction constants must be mutually consistent with the codes the
  // way the engine derives them from (a_min, a_scale, w_min, w_scale).
  std::vector<std::int32_t> sums(static_cast<std::size_t>(C), 0);
  for (std::int64_t c = 0; c < C; ++c) {
    for (std::int64_t i = 0; i < K; ++i) sums[c] += w[c * K + i];
  }
  a.w_code_sums = sums.data();
  const float a_scale = rng.uniform(1e-3f, 2e-2f);
  const float a_min = rng.uniform(-1.0f, 0.0f);
  const float w_scale = rng.uniform(1e-3f, 2e-2f);
  const float w_min = rng.uniform(-1.0f, 0.0f);
  a.ss = a_scale * w_scale;
  a.cw = a_min * w_scale;
  a.ca = w_min * a_scale;
  a.cc = static_cast<float>(K) * a_min * w_min;
  std::vector<float> es(static_cast<std::size_t>(C));
  std::vector<float> eh(static_cast<std::size_t>(C));
  fill_floats(rng, es.data(), C, 0.5f, 1.5f);
  fill_floats(rng, eh.data(), C, -1.0f, 1.0f);
  a.epi_scale = es.data();
  a.epi_shift = eh.data();

  std::vector<float> out_ref(
      static_cast<std::size_t>(batch * C * a.out_h() * a.out_w()),
      kSentinelF32);
  std::vector<float> out_got(out_ref);
  portable_backend().depthwise_int(act.data(), batch, w.data(), a,
                                   out_ref.data());
  test.depthwise_int(act.data(), batch, w.data(), a, out_got.data());
  // Bytewise, not NMSE: served logits must be identical on every backend
  // (GoldenLogits), so even a 1-ulp or signed-zero drift is a failure.
  compare_exact(out_ref, out_got, &r);
  return r;
}

CaseResult depthwise_f32_case(std::uint64_t seed, const Backend& test) {
  Rng rng(seed);
  CaseResult r;
  DepthwiseArgs a;
  a.channels = rng.uniform_int(1, 8);
  constexpr std::int64_t kKernels[] = {1, 3, 5};
  a.kernel = kKernels[rng.uniform_int(0, 2)];
  a.stride = rng.uniform_int(1, 2);
  a.pad = rng.uniform_int(0, a.kernel / 2);
  a.in_h = a.kernel + rng.uniform_int(0, 9);
  a.in_w = a.kernel + rng.uniform_int(0, 9);
  a.active_channels =
      rng.coin(0.2) ? rng.uniform_int(0, a.channels) : a.channels;
  a.relu = rng.coin();
  const std::int64_t batch = rng.uniform_int(1, 3);
  r.desc = "depthwise_f32 b=" + std::to_string(batch) + " c=" +
           std::to_string(a.channels) + " " + shape2(a.in_h, a.in_w) +
           " k=" + std::to_string(a.kernel) + " s=" + std::to_string(a.stride) +
           " p=" + std::to_string(a.pad);

  const std::int64_t C = a.channels, K = a.kernel * a.kernel;
  std::vector<float> x(static_cast<std::size_t>(batch * C * a.in_h * a.in_w));
  std::vector<float> w(static_cast<std::size_t>(C * K));
  fill_floats(rng, x.data(), static_cast<std::int64_t>(x.size()), -2.0f, 2.0f);
  fill_floats(rng, w.data(), static_cast<std::int64_t>(w.size()), -1.0f, 1.0f);
  std::vector<float> es(static_cast<std::size_t>(C));
  std::vector<float> eh(static_cast<std::size_t>(C));
  fill_floats(rng, es.data(), C, 0.5f, 1.5f);
  fill_floats(rng, eh.data(), C, -1.0f, 1.0f);
  a.epi_scale = es.data();
  a.epi_shift = eh.data();

  std::vector<float> out_ref(
      static_cast<std::size_t>(batch * C * a.out_h() * a.out_w()),
      kSentinelF32);
  std::vector<float> out_got(out_ref);
  portable_backend().depthwise_f32(x.data(), batch, w.data(), a,
                                   out_ref.data());
  test.depthwise_f32(x.data(), batch, w.data(), a, out_got.data());
  compare_nmse(out_ref, out_got, &r);
  return r;
}

CaseResult quantize_act_case(std::uint64_t seed, const Backend& test) {
  Rng rng(seed);
  CaseResult r;
  // Mix of empty, sub-SIMD-width, and large extents; up to 20000 crosses
  // the encode's 4096 grain, so chunk tails of every width occur. The 0.1
  // coin makes the tensor constant to hit the degenerate-range branch.
  const std::int64_t n =
      rng.coin(0.1) ? rng.uniform_int(0, 15) : rng.uniform_int(16, 20000);
  const int bits = draw_bits(rng);
  const bool constant = rng.coin(0.1);
  // Specials: signed zeros (at index 0, which seeds every reduction lane,
  // and elsewhere, so -0.0 and +0.0 can tie for a range end) and
  // denormals. A ReLU output's minimum is such a tie.
  const bool zeros = !constant && rng.coin(0.3);
  const bool denormals = !constant && rng.coin(0.2);
  r.desc = "quantize_act n=" + std::to_string(n) +
           " bits=" + std::to_string(bits) + (constant ? " constant" : "") +
           (zeros ? " signed-zeros" : "") + (denormals ? " denormals" : "");

  std::vector<float> x(static_cast<std::size_t>(std::max<std::int64_t>(n, 1)));
  if (constant) {
    std::fill(x.begin(), x.end(), rng.uniform(-2.0f, 2.0f));
  } else {
    // A zero tie needs a range that ends at zero: the zeros case fills a
    // ReLU-like [0, 3], a [-3, 0], or the usual [-3, 3].
    const std::int64_t side = zeros ? rng.uniform_int(0, 2) : 2;
    fill_floats(rng, x.data(), n, side == 0 ? 0.0f : -3.0f,
                side == 1 ? 0.0f : 3.0f);
    const std::int64_t specials = n == 0 ? 0 : rng.uniform_int(1, 1 + n / 8);
    for (std::int64_t k = 0; zeros && k < specials; ++k) {
      const std::int64_t i =
          k == 0 && rng.coin(0.5) ? 0 : rng.uniform_int(0, n - 1);
      x[static_cast<std::size_t>(i)] = rng.coin(0.5) ? -0.0f : 0.0f;
    }
    for (std::int64_t k = 0; denormals && k < specials; ++k) {
      const float tiny = std::numeric_limits<float>::denorm_min() *
                         static_cast<float>(rng.uniform_int(1, 1 << 20));
      x[static_cast<std::size_t>(rng.uniform_int(0, n - 1))] =
          rng.coin(0.5) ? -tiny : tiny;
    }
  }

  std::vector<std::uint8_t> codes_ref(
      static_cast<std::size_t>(std::max<std::int64_t>(n, 1)), kSentinelU8);
  std::vector<std::uint8_t> codes_got(codes_ref);
  const ActQuant q_ref =
      portable_backend().quantize_act(x.data(), n, bits, codes_ref.data());
  const ActQuant q_got = test.quantize_act(x.data(), n, bits, codes_got.data());
  if (!compare_exact(codes_ref, codes_got, &r)) return r;
  // The observed range is part of the op's contract (the engine folds it
  // into the zero-point constants), so it must match bit for bit too.
  if (std::memcmp(&q_ref.a_min, &q_got.a_min, sizeof(float)) != 0 ||
      std::memcmp(&q_ref.a_scale, &q_got.a_scale, sizeof(float)) != 0 ||
      q_ref.zero_code != q_got.zero_code) {
    r.ok = false;
    r.detail = "ActQuant mismatch: ref={" + std::to_string(q_ref.a_min) + "," +
               std::to_string(q_ref.a_scale) + "," +
               std::to_string(q_ref.zero_code) + "} got={" +
               std::to_string(q_got.a_min) + "," +
               std::to_string(q_got.a_scale) + "," +
               std::to_string(q_got.zero_code) + "}";
  }
  return r;
}

CaseResult fake_quant_case(std::uint64_t seed, const Backend& test) {
  Rng rng(seed);
  CaseResult r;
  const std::int64_t n = rng.uniform_int(0, 5000);
  // bits >= 24 is the pass-through contract; include it.
  const int bits = rng.coin(0.1) ? 26 : draw_bits(rng);
  const bool in_place = rng.coin(0.25);
  r.desc = "fake_quant n=" + std::to_string(n) +
           " bits=" + std::to_string(bits) + (in_place ? " in-place" : "");

  std::vector<float> x(static_cast<std::size_t>(std::max<std::int64_t>(n, 1)));
  fill_floats(rng, x.data(), n, -3.0f, 3.0f);

  std::vector<float> out_ref(x.size(), kSentinelF32);
  std::vector<float> out_got(x.size(), kSentinelF32);
  if (in_place) {
    out_ref = x;
    out_got = x;
    portable_backend().fake_quant(out_ref.data(), n, bits, out_ref.data());
    test.fake_quant(out_got.data(), n, bits, out_got.data());
  } else {
    portable_backend().fake_quant(x.data(), n, bits, out_ref.data());
    test.fake_quant(x.data(), n, bits, out_got.data());
  }
  compare_nmse(out_ref, out_got, &r);
  return r;
}

CaseResult dequantize_case(std::uint64_t seed, const Backend& test) {
  Rng rng(seed);
  CaseResult r;
  const std::int64_t n = rng.uniform_int(0, 5000);
  const int bits = draw_bits(rng);
  ActQuant q;
  q.a_min = rng.uniform(-2.0f, 0.0f);
  q.a_scale = rng.uniform(0.0f, 0.1f);
  r.desc = "dequantize n=" + std::to_string(n) +
           " bits=" + std::to_string(bits);

  std::vector<std::uint8_t> codes(
      static_cast<std::size_t>(std::max<std::int64_t>(n, 1)));
  fill_codes(rng, codes.data(), n, bits);

  std::vector<float> out_ref(codes.size(), kSentinelF32);
  std::vector<float> out_got(codes.size(), kSentinelF32);
  portable_backend().dequantize(codes.data(), n, q, out_ref.data());
  test.dequantize(codes.data(), n, q, out_got.data());
  compare_nmse(out_ref, out_got, &r);
  return r;
}

CaseResult epilogue_case(std::uint64_t seed, const Backend& test) {
  Rng rng(seed);
  CaseResult r;
  const std::int64_t n = rng.uniform_int(1, 500);
  const bool use_colsum = rng.coin(0.7);
  const bool relu = rng.coin();
  r.desc = "epilogue n=" + std::to_string(n) +
           (use_colsum ? " +colsum" : " no-colsum") + (relu ? " relu" : "");

  std::vector<std::int32_t> acc(static_cast<std::size_t>(n));
  std::vector<std::int32_t> colsum(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    acc[i] = static_cast<std::int32_t>(rng.uniform_int(-100000, 100000));
    colsum[i] = static_cast<std::int32_t>(rng.uniform_int(0, 65025));
  }
  const float ss = rng.uniform(1e-4f, 1e-2f);
  const float row_term = rng.uniform(-1.0f, 1.0f);
  const float ca = use_colsum ? rng.uniform(-1e-2f, 0.0f) : 0.0f;
  const float ea = rng.uniform(-2.0f, 2.0f);
  const float eb = rng.uniform(-1.0f, 1.0f);

  std::vector<float> out_ref(static_cast<std::size_t>(n), kSentinelF32);
  std::vector<float> out_got(out_ref);
  const std::int32_t* cs = use_colsum ? colsum.data() : nullptr;
  portable_backend().epilogue_row(acc.data(), cs, ss, row_term, ca, ea, eb,
                                  relu, n, out_ref.data());
  test.epilogue_row(acc.data(), cs, ss, row_term, ca, ea, eb, relu, n,
                    out_got.data());
  compare_nmse(out_ref, out_got, &r);
  return r;
}

CaseResult residual_add_case(std::uint64_t seed, const Backend& test) {
  Rng rng(seed);
  CaseResult r;
  const std::int64_t B = rng.uniform_int(1, 3);
  const std::int64_t C = rng.uniform_int(1, 8);
  const std::int64_t hw = rng.uniform_int(1, 100);
  const std::int64_t mask = rng.coin(0.3) ? rng.uniform_int(0, C) : -1;
  const bool in_place = rng.coin(0.3);
  r.desc = "residual_add b=" + std::to_string(B) + " c=" + std::to_string(C) +
           " hw=" + std::to_string(hw) + " mask=" + std::to_string(mask) +
           (in_place ? " in-place" : "");

  const std::int64_t numel = B * C * hw;
  std::vector<float> cur(static_cast<std::size_t>(numel));
  std::vector<float> skip(static_cast<std::size_t>(numel));
  fill_floats(rng, cur.data(), numel, -2.0f, 2.0f);
  fill_floats(rng, skip.data(), numel, -2.0f, 2.0f);

  std::vector<float> out_ref;
  std::vector<float> out_got;
  if (in_place) {  // dst aliases cur, the planner's in-place case
    out_ref = cur;
    out_got = cur;
    portable_backend().residual_add(out_ref.data(), skip.data(), B, C, hw,
                                    mask, out_ref.data());
    test.residual_add(out_got.data(), skip.data(), B, C, hw, mask,
                      out_got.data());
  } else {
    out_ref.assign(static_cast<std::size_t>(numel), kSentinelF32);
    out_got.assign(static_cast<std::size_t>(numel), kSentinelF32);
    portable_backend().residual_add(cur.data(), skip.data(), B, C, hw, mask,
                                    out_ref.data());
    test.residual_add(cur.data(), skip.data(), B, C, hw, mask, out_got.data());
  }
  compare_nmse(out_ref, out_got, &r);
  return r;
}

CaseResult bitpack_case(std::uint64_t seed, const Backend& test) {
  Rng rng(seed);
  CaseResult r;
  const std::int64_t count = rng.uniform_int(0, 4000);
  constexpr int kCells[] = {1, 2, 4, 8};
  const int cell = kCells[rng.uniform_int(0, 3)];
  r.desc = "bitpack count=" + std::to_string(count) +
           " cell_bits=" + std::to_string(cell);

  std::vector<std::uint8_t> codes(
      static_cast<std::size_t>(std::max<std::int64_t>(count, 1)));
  for (std::int64_t i = 0; i < count; ++i) {
    codes[i] = static_cast<std::uint8_t>(rng.uniform_int(0, (1 << cell) - 1));
  }

  const std::int64_t pbytes = packed_bytes(count, cell);
  std::vector<std::uint8_t> packed_ref(
      static_cast<std::size_t>(std::max<std::int64_t>(pbytes, 1)),
      kSentinelU8);
  std::vector<std::uint8_t> packed_got(packed_ref);
  portable_backend().pack_codes(codes.data(), count, cell, packed_ref.data());
  test.pack_codes(codes.data(), count, cell, packed_got.data());
  if (!compare_exact(packed_ref, packed_got, &r)) return r;

  // Unpack the reference bytes through both backends and require the round
  // trip to restore the original codes exactly.
  std::vector<std::uint8_t> un_ref(codes.size(), kSentinelU8);
  std::vector<std::uint8_t> un_got(codes.size(), kSentinelU8);
  portable_backend().unpack_codes(packed_ref.data(), count, cell,
                                  un_ref.data());
  test.unpack_codes(packed_ref.data(), count, cell, un_got.data());
  if (!compare_exact(un_ref, un_got, &r)) return r;
  for (std::int64_t i = 0; i < count; ++i) {
    if (un_got[i] != codes[i]) {
      r.ok = false;
      r.detail = "pack/unpack round trip lost code at index " +
                 std::to_string(i);
      return r;
    }
  }
  return r;
}

// Activation-slot pack: the parallel hot-path twin of bitpack. Checked two
// ways like igemm_packed_case — the portable reference must equal the
// scalar pack_codes ground truth (the chunked parallel decomposition may
// not change a byte), and the backend under test must equal the portable
// reference bit for bit. Sizes cross the parallel grain and the SIMD block
// widths on some draws; output buffers carry sentinel slack bytes past the
// packed extent so an over-long write is caught, and a scalar round trip
// must restore every code.
CaseResult act_pack_case(std::uint64_t seed, const Backend& test) {
  Rng rng(seed);
  CaseResult r;
  constexpr int kCells[] = {1, 2, 4, 8};
  const int cell = kCells[rng.uniform_int(0, 3)];
  const std::int64_t count = rng.coin(0.15) ? rng.uniform_int(4000, 20000)
                                            : rng.uniform_int(0, 1200);
  r.desc = "act_pack count=" + std::to_string(count) +
           " cell_bits=" + std::to_string(cell);

  std::vector<std::uint8_t> codes(
      static_cast<std::size_t>(std::max<std::int64_t>(count, 1)));
  for (std::int64_t i = 0; i < count; ++i) {
    codes[i] = static_cast<std::uint8_t>(rng.uniform_int(0, (1 << cell) - 1));
  }

  const std::int64_t pbytes = packed_bytes(count, cell);
  const std::size_t buf = static_cast<std::size_t>(pbytes) + 8;  // slack
  std::vector<std::uint8_t> truth(buf, kSentinelU8);
  std::vector<std::uint8_t> packed_ref(truth);
  std::vector<std::uint8_t> packed_got(truth);
  if (count > 0) pack_codes(codes.data(), count, cell, truth.data());
  portable_backend().act_pack(codes.data(), count, cell, packed_ref.data());
  test.act_pack(codes.data(), count, cell, packed_got.data());
  if (!compare_exact(truth, packed_ref, &r)) {
    r.detail = "portable reference disagrees with scalar pack_codes ground "
               "truth: " + r.detail;
    return r;
  }
  if (!compare_exact(packed_ref, packed_got, &r)) return r;

  std::vector<std::uint8_t> un(codes.size(), kSentinelU8);
  if (count > 0) unpack_codes(packed_got.data(), count, cell, un.data());
  for (std::int64_t i = 0; i < count; ++i) {
    if (un[i] != codes[i]) {
      r.ok = false;
      r.detail = "act_pack round trip lost code at index " + std::to_string(i);
      return r;
    }
  }
  return r;
}

// Inverse direction: the packed source carries garbage slack bytes past
// packed_bytes(count, cell) and sentinel-checked output past `count`, so a
// kernel that reads or writes beyond the logical extent fails loudly.
CaseResult act_unpack_case(std::uint64_t seed, const Backend& test) {
  Rng rng(seed);
  CaseResult r;
  constexpr int kCells[] = {1, 2, 4, 8};
  const int cell = kCells[rng.uniform_int(0, 3)];
  const std::int64_t count = rng.coin(0.15) ? rng.uniform_int(4000, 20000)
                                            : rng.uniform_int(0, 1200);
  r.desc = "act_unpack count=" + std::to_string(count) +
           " cell_bits=" + std::to_string(cell);

  std::vector<std::uint8_t> codes(
      static_cast<std::size_t>(std::max<std::int64_t>(count, 1)));
  for (std::int64_t i = 0; i < count; ++i) {
    codes[i] = static_cast<std::uint8_t>(rng.uniform_int(0, (1 << cell) - 1));
  }
  const std::int64_t pbytes = packed_bytes(count, cell);
  std::vector<std::uint8_t> packed(static_cast<std::size_t>(pbytes) + 8);
  fill_codes(rng, packed.data(), static_cast<std::int64_t>(packed.size()),
             8);  // slack bytes stay garbage
  if (count > 0) pack_codes(codes.data(), count, cell, packed.data());

  std::vector<std::uint8_t> un_truth(codes.size() + 8, kSentinelU8);
  std::vector<std::uint8_t> un_ref(un_truth);
  std::vector<std::uint8_t> un_got(un_truth);
  if (count > 0) unpack_codes(packed.data(), count, cell, un_truth.data());
  portable_backend().act_unpack(packed.data(), count, cell, un_ref.data());
  test.act_unpack(packed.data(), count, cell, un_got.data());
  if (!compare_exact(un_truth, un_ref, &r)) {
    r.detail = "portable reference disagrees with scalar unpack_codes ground "
               "truth: " + r.detail;
    return r;
  }
  if (!compare_exact(un_ref, un_got, &r)) return r;
  for (std::int64_t i = 0; i < count; ++i) {
    if (un_got[i] != codes[i]) {
      r.ok = false;
      r.detail = "act_unpack did not restore code at index " +
                 std::to_string(i);
      return r;
    }
  }
  return r;
}

// Float GEMM, bytewise: every backend's sgemm must reproduce the portable
// evaluation order exactly, so the training path and the engine's float
// layers are bit-identical across backends. Shapes cross the driver's
// Kc = 256 / Nc = 256 block edges on some draws and leave mr < 4 / nr < 16
// tile tails on most; both transposes, alpha in {1, 0.5} (the alpha fold
// into the A pack), beta in {0, 1, other} (the pre-scale). The ldc slack
// holds sentinels, so a masked tail store that spills is caught, and A
// carries -0.0 and +-inf entries on some draws, so signed zeros and the
// NaNs inf * 0 makes must come out the same bytes.
CaseResult sgemm_case(std::uint64_t seed, const Backend& test) {
  Rng rng(seed);
  CaseResult r;
  const std::int64_t m = rng.uniform_int(1, 70);
  const std::int64_t n =
      rng.coin(0.25) ? rng.uniform_int(240, 300) : rng.uniform_int(1, 64);
  const std::int64_t k = rng.coin(0.25)   ? rng.uniform_int(240, 600)
                         : rng.coin(0.05) ? 0
                                          : rng.uniform_int(1, 96);
  const bool trans_a = rng.coin();
  const bool trans_b = rng.coin();
  const float alpha = rng.coin() ? 1.0f : 0.5f;
  constexpr float kBetas[] = {0.0f, 1.0f, -0.75f};
  const float beta = kBetas[rng.uniform_int(0, 2)];
  // Stored operand shapes: op(A) is m x k, so A is k x m when transposed.
  const std::int64_t a_rows = trans_a ? k : m, a_cols = trans_a ? m : k;
  const std::int64_t b_rows = trans_b ? n : k, b_cols = trans_b ? k : n;
  const std::int64_t lda = a_cols + rng.uniform_int(0, 5);
  const std::int64_t ldb = b_cols + rng.uniform_int(0, 5);
  const std::int64_t ldc = n + rng.uniform_int(0, 5);
  const bool specials = rng.coin(0.3);
  // In-place B: a plain B is read by the micro-kernel straight from the
  // caller's memory. On these draws its row stride exceeds n, the slack
  // between rows holds sentinels, and the allocation ends at the last
  // row's n-th column, so a tile that reads past n columns either pulls a
  // sentinel into C or runs off the heap block (ASan).
  const bool tight_b = !trans_b && k > 0 && rng.coin();
  const std::int64_t ldb_used = tight_b ? n + rng.uniform_int(1, 9) : ldb;
  r.desc = "sgemm " + std::to_string(m) + "x" + std::to_string(n) + "x" +
           std::to_string(k) + " trans=" + std::to_string(trans_a) + "," +
           std::to_string(trans_b) + " alpha=" + std::to_string(alpha) +
           " beta=" + std::to_string(beta) + " ld=" + std::to_string(lda) +
           "," + std::to_string(ldb_used) + "," + std::to_string(ldc) +
           (specials ? " specials" : "") + (tight_b ? " tight_b" : "");

  std::vector<float> a(static_cast<std::size_t>(std::max<std::int64_t>(
      a_rows * lda, 1)));
  std::vector<float> b(static_cast<std::size_t>(
      tight_b ? (k - 1) * ldb_used + n
              : std::max<std::int64_t>(b_rows * ldb, 1)));
  fill_floats(rng, a.data(), static_cast<std::int64_t>(a.size()), -1, 1);
  if (tight_b) {
    std::fill(b.begin(), b.end(), kSentinelF32);
    for (std::int64_t p = 0; p < k; ++p) {
      fill_floats(rng, b.data() + p * ldb_used, n, -1, 1);
    }
  } else {
    fill_floats(rng, b.data(), static_cast<std::int64_t>(b.size()), -1, 1);
  }
  if (specials && a_rows * lda > 0) {
    const std::int64_t last = a_rows * lda - 1;
    for (int i = 0; i < 8; ++i) a[rng.uniform_int(0, last)] = -0.0f;
    constexpr float kInf = std::numeric_limits<float>::infinity();
    a[rng.uniform_int(0, last)] = kInf;
    a[rng.uniform_int(0, last)] = -kInf;
  }

  std::vector<float> c_ref(static_cast<std::size_t>(m * ldc), kSentinelF32);
  for (std::int64_t i = 0; i < m; ++i) {
    fill_floats(rng, c_ref.data() + i * ldc, n, -1, 1);
    if (specials) c_ref[i * ldc] = -0.0f;
  }
  std::vector<float> c_got(c_ref);
  std::vector<float> c0;
  if (tight_b) c0 = c_ref;
  portable_backend().sgemm(trans_a, trans_b, m, n, k, alpha, a.data(), lda,
                           b.data(), ldb_used, beta, c_ref.data(), ldc);
  test.sgemm(trans_a, trans_b, m, n, k, alpha, a.data(), lda, b.data(),
             ldb_used, beta, c_got.data(), ldc);
  if (!compare_exact(c_ref, c_got, &r)) return r;
  if (tight_b) {
    // The backends share the driver, so a stride slip there would agree
    // with itself: check against a plain triple loop, within float
    // rounding, that no sentinel reached C.
    for (std::int64_t i = 0; i < m; ++i) {
      for (std::int64_t j = 0; j < n; ++j) {
        double want = static_cast<double>(beta) * c0[i * ldc + j];
        double mag = std::abs(want);
        for (std::int64_t p = 0; p < k; ++p) {
          const double av = trans_a ? a[p * lda + i] : a[i * lda + p];
          const double t = alpha * av * b[p * ldb_used + j];
          want += t;
          mag += std::abs(t);
        }
        const double got = c_got[i * ldc + j];
        if (std::isfinite(mag) && !(std::abs(got - want) <= 1e-5 * mag + 1e-6)) {
          r.ok = false;
          r.detail = "in-place B: C[" + std::to_string(i) + "," +
                     std::to_string(j) + "] = " + std::to_string(got) +
                     ", naive sum " + std::to_string(want);
          return r;
        }
      }
    }
  }
  return r;
}

}  // namespace

CaseResult run_conformance_case(Op op, std::uint64_t seed,
                                const Backend& test) {
  switch (op) {
    case Op::kIgemm: return igemm_case(seed, test);
    case Op::kIgemmW4: return igemm_packed_case(seed, test, 4);
    case Op::kIgemmW2: return igemm_packed_case(seed, test, 2);
    case Op::kIm2colU8: return im2col_u8_case(seed, test);
    case Op::kIm2colF32: return im2col_f32_case(seed, test);
    case Op::kDepthwiseInt: return depthwise_int_case(seed, test, -1, -1);
    case Op::kDepthwiseF32: return depthwise_f32_case(seed, test);
    case Op::kQuantizeAct: return quantize_act_case(seed, test);
    case Op::kFakeQuant: return fake_quant_case(seed, test);
    case Op::kDequantize: return dequantize_case(seed, test);
    case Op::kEpilogue: return epilogue_case(seed, test);
    case Op::kResidualAdd: return residual_add_case(seed, test);
    case Op::kBitpack: return bitpack_case(seed, test);
    case Op::kActPack: return act_pack_case(seed, test);
    case Op::kActUnpack: return act_unpack_case(seed, test);
    case Op::kSgemm: return sgemm_case(seed, test);
  }
  CaseResult r;
  r.ok = false;
  r.detail = "unknown op";
  return r;
}

CaseResult run_depthwise_case(const Backend& test, std::uint64_t seed,
                              int bits, int stride) {
  return depthwise_int_case(seed, test, bits, stride);
}

std::string repro_command(Op op, std::uint64_t seed, const Backend& test) {
  return std::string("ADQ_BACKEND=") + test.name + " test_backend_ops --seed=" +
         std::to_string(seed) + " --op=" + op_name(op);
}

namespace {

// Times fn (already run once for warmup) with doubling batches until the
// measured interval is long enough to trust; returns seconds per call.
template <typename Fn>
double time_op(Fn&& fn) {
  fn();  // warmup / first-touch
  std::int64_t iters = 1;
  for (;;) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::int64_t i = 0; i < iters; ++i) fn();
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    if (dt.count() > 0.025 || iters > (1 << 20)) {
      return dt.count() / static_cast<double>(iters);
    }
    iters *= 2;
  }
}

}  // namespace

PerfSample measure_perf(Op op, const Backend& test, int bits) {
  Rng rng(0xbe7c'0de5u);
  PerfSample s;
  switch (op) {
    case Op::kIgemm: {
      const std::int64_t m = 128, n = 512, k = 256;
      std::vector<std::uint8_t> a(static_cast<std::size_t>(m * k));
      std::vector<std::uint8_t> b(static_cast<std::size_t>(k * n));
      fill_codes(rng, a.data(), m * k, bits);
      fill_codes(rng, b.data(), k * n, bits);
      std::vector<std::int32_t> c(static_cast<std::size_t>(m * n));
      const double sec = time_op([&] {
        test.igemm(m, n, k, a.data(), k, b.data(), n, c.data(), n);
      });
      s.value = static_cast<double>(m * n * k) / sec * 1e-9;
      s.unit = "GMAC/s";
      return s;
    }
    case Op::kIgemmW4:
    case Op::kIgemmW2: {
      // Same workload shape as kIgemm so the per-bitwidth GMAC/s rows
      // compare directly: packed low-bit weights against u8 activations,
      // which is exactly what a <= 4-bit layer feeds the engine.
      const int cell = op == Op::kIgemmW4 ? 4 : 2;
      const std::int64_t m = 128, n = 512, k = 256;
      std::vector<std::uint8_t> codes(static_cast<std::size_t>(m * k));
      fill_codes(rng, codes.data(), m * k, bits);
      const std::int64_t lda_bytes = packed_row_bytes(k, cell);
      std::vector<std::uint8_t> a(static_cast<std::size_t>(m * lda_bytes));
      for (std::int64_t i = 0; i < m; ++i) {
        pack_codes(codes.data() + i * k, k, cell, a.data() + i * lda_bytes);
      }
      std::vector<std::uint8_t> b(static_cast<std::size_t>(k * n));
      fill_codes(rng, b.data(), k * n, 8);
      std::vector<std::int32_t> c(static_cast<std::size_t>(m * n));
      const auto fn = op == Op::kIgemmW4 ? test.igemm_w4 : test.igemm_w2;
      const double sec = time_op([&] {
        fn(m, n, k, a.data(), lda_bytes, b.data(), n, c.data(), n);
      });
      s.value = static_cast<double>(m * n * k) / sec * 1e-9;
      s.unit = "GMAC/s";
      return s;
    }
    case Op::kDepthwiseInt: {
      DepthwiseArgs a;
      a.channels = 64;
      a.in_h = a.in_w = 56;
      a.kernel = 3;
      a.stride = 1;
      a.pad = 1;
      a.active_channels = 64;
      const std::int64_t C = a.channels, K = 9, B = 1;
      std::vector<std::uint8_t> act(
          static_cast<std::size_t>(B * C * a.in_h * a.in_w));
      std::vector<std::uint8_t> w(static_cast<std::size_t>(C * K));
      fill_codes(rng, act.data(), static_cast<std::int64_t>(act.size()), bits);
      fill_codes(rng, w.data(), static_cast<std::int64_t>(w.size()), bits);
      std::vector<std::int32_t> sums(static_cast<std::size_t>(C), 0);
      for (std::int64_t c = 0; c < C; ++c) {
        for (std::int64_t i = 0; i < K; ++i) sums[c] += w[c * K + i];
      }
      a.w_code_sums = sums.data();
      a.ss = 1e-3f;
      std::vector<float> es(static_cast<std::size_t>(C), 1.0f);
      std::vector<float> eh(static_cast<std::size_t>(C), 0.0f);
      a.epi_scale = es.data();
      a.epi_shift = eh.data();
      std::vector<float> out(
          static_cast<std::size_t>(B * C * a.out_h() * a.out_w()));
      const double sec = time_op([&] {
        test.depthwise_int(act.data(), B, w.data(), a, out.data());
      });
      s.value =
          static_cast<double>(B * C * a.out_h() * a.out_w() * K) / sec * 1e-9;
      s.unit = "GMAC/s";
      return s;
    }
    case Op::kDepthwiseF32: {
      DepthwiseArgs a;
      a.channels = 64;
      a.in_h = a.in_w = 56;
      a.kernel = 3;
      a.stride = 1;
      a.pad = 1;
      a.active_channels = 64;
      const std::int64_t C = a.channels, K = 9, B = 1;
      std::vector<float> x(static_cast<std::size_t>(B * C * a.in_h * a.in_w));
      std::vector<float> w(static_cast<std::size_t>(C * K));
      fill_floats(rng, x.data(), static_cast<std::int64_t>(x.size()), -1, 1);
      fill_floats(rng, w.data(), static_cast<std::int64_t>(w.size()), -1, 1);
      std::vector<float> es(static_cast<std::size_t>(C), 1.0f);
      std::vector<float> eh(static_cast<std::size_t>(C), 0.0f);
      a.epi_scale = es.data();
      a.epi_shift = eh.data();
      std::vector<float> out(
          static_cast<std::size_t>(B * C * a.out_h() * a.out_w()));
      const double sec = time_op([&] {
        test.depthwise_f32(x.data(), B, w.data(), a, out.data());
      });
      s.value =
          static_cast<double>(B * C * a.out_h() * a.out_w() * K) / sec * 1e-9;
      s.unit = "GMAC/s";
      return s;
    }
    case Op::kIm2colU8: {
      ConvGeometry g;
      g.channels = 32;
      g.in_h = g.in_w = 28;
      g.kernel_h = g.kernel_w = 3;
      g.stride = 1;
      g.pad = 1;
      std::vector<std::uint8_t> im(
          static_cast<std::size_t>(g.channels * g.in_h * g.in_w));
      fill_codes(rng, im.data(), static_cast<std::int64_t>(im.size()), 8);
      const std::int64_t ohw = g.out_h() * g.out_w();
      std::vector<std::uint8_t> col(
          static_cast<std::size_t>(g.patch_size() * ohw));
      const double sec = time_op(
          [&] { test.im2col_u8(im.data(), g, col.data(), ohw, 0); });
      s.value = static_cast<double>(col.size()) / sec * 1e-9;
      return s;
    }
    case Op::kIm2colF32: {
      ConvGeometry g;
      g.channels = 32;
      g.in_h = g.in_w = 28;
      g.kernel_h = g.kernel_w = 3;
      g.stride = 1;
      g.pad = 1;
      std::vector<float> im(
          static_cast<std::size_t>(g.channels * g.in_h * g.in_w));
      fill_floats(rng, im.data(), static_cast<std::int64_t>(im.size()), -1, 1);
      const std::int64_t ohw = g.out_h() * g.out_w();
      std::vector<float> col(static_cast<std::size_t>(g.patch_size() * ohw));
      const double sec =
          time_op([&] { test.im2col_f32(im.data(), g, col.data(), ohw); });
      s.value = static_cast<double>(col.size() * sizeof(float)) / sec * 1e-9;
      return s;
    }
    case Op::kQuantizeAct: {
      const std::int64_t n = 1 << 20;
      std::vector<float> x(static_cast<std::size_t>(n));
      fill_floats(rng, x.data(), n, -3, 3);
      std::vector<std::uint8_t> codes(static_cast<std::size_t>(n));
      const double sec = time_op(
          [&] { test.quantize_act(x.data(), n, bits, codes.data()); });
      s.value = static_cast<double>(n * sizeof(float)) / sec * 1e-9;
      return s;
    }
    case Op::kFakeQuant: {
      const std::int64_t n = 1 << 20;
      std::vector<float> x(static_cast<std::size_t>(n));
      fill_floats(rng, x.data(), n, -3, 3);
      std::vector<float> out(static_cast<std::size_t>(n));
      const double sec =
          time_op([&] { test.fake_quant(x.data(), n, bits, out.data()); });
      s.value = static_cast<double>(n * sizeof(float)) / sec * 1e-9;
      return s;
    }
    case Op::kDequantize: {
      const std::int64_t n = 1 << 20;
      std::vector<std::uint8_t> codes(static_cast<std::size_t>(n));
      fill_codes(rng, codes.data(), n, 8);
      std::vector<float> out(static_cast<std::size_t>(n));
      ActQuant q;
      q.a_min = -1.0f;
      q.a_scale = 0.01f;
      const double sec =
          time_op([&] { test.dequantize(codes.data(), n, q, out.data()); });
      s.value = static_cast<double>(n * sizeof(float)) / sec * 1e-9;
      return s;
    }
    case Op::kEpilogue: {
      const std::int64_t n = 1 << 20;
      std::vector<std::int32_t> acc(static_cast<std::size_t>(n));
      std::vector<std::int32_t> colsum(static_cast<std::size_t>(n));
      for (std::int64_t i = 0; i < n; ++i) {
        acc[i] = static_cast<std::int32_t>(rng.uniform_int(-100000, 100000));
        colsum[i] = static_cast<std::int32_t>(rng.uniform_int(0, 65025));
      }
      std::vector<float> out(static_cast<std::size_t>(n));
      const double sec = time_op([&] {
        test.epilogue_row(acc.data(), colsum.data(), 1e-3f, 0.1f, -1e-3f,
                          1.0f, 0.0f, true, n, out.data());
      });
      s.value = static_cast<double>(n * (2 * sizeof(std::int32_t) +
                                         sizeof(float))) /
                sec * 1e-9;
      return s;
    }
    case Op::kResidualAdd: {
      const std::int64_t B = 4, C = 64, hw = 3136, numel = B * C * hw;
      std::vector<float> cur(static_cast<std::size_t>(numel));
      std::vector<float> skip(static_cast<std::size_t>(numel));
      fill_floats(rng, cur.data(), numel, -1, 1);
      fill_floats(rng, skip.data(), numel, -1, 1);
      std::vector<float> dst(static_cast<std::size_t>(numel));
      const double sec = time_op([&] {
        test.residual_add(cur.data(), skip.data(), B, C, hw, -1, dst.data());
      });
      s.value = static_cast<double>(3 * numel * sizeof(float)) / sec * 1e-9;
      return s;
    }
    case Op::kActPack:
    case Op::kActUnpack: {
      // bits caps the code range AND picks the cell (8/4/2), matching the
      // storage widths the activation planner assigns.
      const std::int64_t n = 1 << 20;
      const int cell = bits;
      std::vector<std::uint8_t> codes(static_cast<std::size_t>(n));
      for (std::int64_t i = 0; i < n; ++i) {
        codes[i] = static_cast<std::uint8_t>(rng.uniform_int(0, (1 << cell) - 1));
      }
      std::vector<std::uint8_t> packed(
          static_cast<std::size_t>(packed_bytes(n, cell)));
      if (op == Op::kActPack) {
        const double sec = time_op(
            [&] { test.act_pack(codes.data(), n, cell, packed.data()); });
        s.value = static_cast<double>(n) / sec * 1e-9;
      } else {
        test.act_pack(codes.data(), n, cell, packed.data());
        std::vector<std::uint8_t> un(static_cast<std::size_t>(n));
        const double sec = time_op(
            [&] { test.act_unpack(packed.data(), n, cell, un.data()); });
        s.value = static_cast<double>(n) / sec * 1e-9;
      }
      return s;
    }
    case Op::kSgemm: {
      // The forward GEMM of a VGG19 w0.125 training conv (16 -> 16
      // channels on a 16x16 map: O x ohw x P); GFLOP/s counts the multiply
      // and the add.
      const std::int64_t m = 16, n = 256, k = 144;
      std::vector<float> a(static_cast<std::size_t>(m * k));
      std::vector<float> b(static_cast<std::size_t>(k * n));
      fill_floats(rng, a.data(), m * k, -1, 1);
      fill_floats(rng, b.data(), k * n, -1, 1);
      std::vector<float> c(static_cast<std::size_t>(m * n));
      const double sec = time_op([&] {
        test.sgemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n,
                   0.0f, c.data(), n);
      });
      s.value = static_cast<double>(2 * m * n * k) / sec * 1e-9;
      s.unit = "GFLOP/s";
      return s;
    }
    case Op::kBitpack: {
      const std::int64_t n = 1 << 20;
      const int cell = 4;
      std::vector<std::uint8_t> codes(static_cast<std::size_t>(n));
      for (std::int64_t i = 0; i < n; ++i) {
        codes[i] = static_cast<std::uint8_t>(rng.uniform_int(0, 15));
      }
      std::vector<std::uint8_t> packed(
          static_cast<std::size_t>(packed_bytes(n, cell)));
      std::vector<std::uint8_t> un(static_cast<std::size_t>(n));
      const double sec = time_op([&] {
        test.pack_codes(codes.data(), n, cell, packed.data());
        test.unpack_codes(packed.data(), n, cell, un.data());
      });
      s.value = static_cast<double>(2 * n) / sec * 1e-9;
      return s;
    }
  }
  return s;
}

}  // namespace adq::backend
