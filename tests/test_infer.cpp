// Integer inference engine tests: sub-byte pack/unpack round-trips, the
// u8 GEMM against integer and float references, layer-level parity of the
// compiled integer path with the fake-quant training path per bit-width
// (8/4/2), BatchNorm folding, pruning masks, and whole-model prediction
// agreement for VGG19 and ResNet18.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "backend/registry.h"
#include "infer/engine.h"
#include "infer/plan.h"
#include "infer/plan_io.h"
#include "models/mobilenet.h"
#include "models/resnet.h"
#include "models/vgg.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/init.h"
#include "nn/linear.h"
#include "tensor/bitpack.h"
#include "tensor/gemm.h"
#include "tensor/gemm_int8.h"
#include "tensor/ops.h"
#include "tensor/rng.h"

namespace adq::infer {
namespace {

// For a SINGLE layer the integer path sees the identical input tensor, so
// it produces the identical eqn-1 codes and the same real-arithmetic sum as
// the fake-quant float path (see plan.h) — differences are pure float
// rounding, and one tight relative bound serves every bit-width.
//
// Across a WHOLE model the comparison is statistical instead: each layer
// re-observes its input's min/max dynamically, so a ~1e-6 rounding drift
// can flip an activation sitting exactly on a code boundary to the adjacent
// code. Flips are rare but real, which is why the model-level contract (and
// the issue's acceptance bar) is top-1 agreement, not elementwise equality.
float parity_tol(const Tensor& ref) {
  const float mag =
      std::max(std::abs(min_value(ref)), std::abs(max_value(ref)));
  return 1e-4f * std::max(mag, 1.0f);
}

float mean_abs_diff(const Tensor& a, const Tensor& b) {
  EXPECT_EQ(a.shape(), b.shape());
  double total = 0.0;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    total += std::abs(a[i] - b[i]);
  }
  return a.numel() == 0 ? 0.0f
                        : static_cast<float>(total / static_cast<double>(a.numel()));
}

float max_abs_diff(const Tensor& a, const Tensor& b) {
  EXPECT_EQ(a.shape(), b.shape());
  float worst = 0.0f;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

TEST(BitPack, CellBitsForRoundsToPowerOfTwo) {
  EXPECT_EQ(cell_bits_for(1), 1);
  EXPECT_EQ(cell_bits_for(2), 2);
  EXPECT_EQ(cell_bits_for(3), 4);
  EXPECT_EQ(cell_bits_for(4), 4);
  EXPECT_EQ(cell_bits_for(5), 8);
  EXPECT_EQ(cell_bits_for(8), 8);
}

TEST(BitPack, PackedBytes) {
  EXPECT_EQ(packed_bytes(16, 8), 16);
  EXPECT_EQ(packed_bytes(16, 4), 8);
  EXPECT_EQ(packed_bytes(16, 2), 4);
  EXPECT_EQ(packed_bytes(16, 1), 2);
  // Ragged tails round up.
  EXPECT_EQ(packed_bytes(17, 4), 9);
  EXPECT_EQ(packed_bytes(1, 1), 1);
  EXPECT_THROW(packed_bytes(8, 3), std::invalid_argument);
}

TEST(BitPack, RoundTripEveryCellWidth) {
  Rng rng(11);
  for (int cell : {1, 2, 4, 8}) {
    const std::int64_t count = 1000 + cell;  // exercise ragged tails
    std::vector<std::uint8_t> codes(static_cast<std::size_t>(count));
    for (auto& c : codes) {
      c = static_cast<std::uint8_t>(rng.uniform_int(0, (1 << cell) - 1));
    }
    std::vector<std::uint8_t> packed(
        static_cast<std::size_t>(packed_bytes(count, cell)));
    std::vector<std::uint8_t> back(static_cast<std::size_t>(count), 0xFF);
    pack_codes(codes.data(), count, cell, packed.data());
    unpack_codes(packed.data(), count, cell, back.data());
    EXPECT_EQ(codes, back) << "cell width " << cell;
  }
}

TEST(BitPack, PackedRowBytesAlignsEveryRow) {
  // 13 codes at 4-bit: flat packing shares byte 6 between rows; row-aligned
  // rows round up to 7 bytes each.
  EXPECT_EQ(packed_row_bytes(13, 4), 7);
  EXPECT_EQ(packed_row_bytes(13, 2), 4);
  EXPECT_EQ(packed_row_bytes(13, 1), 2);
  EXPECT_EQ(packed_row_bytes(13, 8), 13);
  EXPECT_EQ(packed_row_bytes(0, 4), 0);
}

// Directed tails: counts that are not multiples of the codes-per-byte must
// leave deterministic zero bits past the last code — the sub-byte GEMM
// kernels read whole bytes, so garbage tail bits would poison the panel
// expansion (and make byte-level golden comparisons flaky).
TEST(BitPack, RaggedTailBitsAreZero) {
  for (int cell : {1, 2, 4}) {
    const int per = 8 / cell;
    for (std::int64_t count : {1, per - 1, per + 1, 3 * per - 1}) {
      if (count <= 0) continue;
      std::vector<std::uint8_t> codes(static_cast<std::size_t>(count));
      for (std::size_t i = 0; i < codes.size(); ++i) {
        codes[i] = static_cast<std::uint8_t>((1 << cell) - 1);  // all-ones
      }
      std::vector<std::uint8_t> packed(
          static_cast<std::size_t>(packed_bytes(count, cell)), 0xFF);
      pack_codes(codes.data(), count, cell, packed.data());
      const std::int64_t used_bits = count * cell;
      const std::int64_t tail_bits = 8 * packed_bytes(count, cell) - used_bits;
      if (tail_bits > 0) {
        const std::uint8_t last = packed.back();
        const std::uint8_t mask =
            static_cast<std::uint8_t>(0xFFu << (8 - tail_bits));
        EXPECT_EQ(last & mask, 0)
            << "cell " << cell << " count " << count
            << ": tail bits of the last byte must pack to zero";
      }
    }
  }
}

TEST(BitPack, RepackRowsAlignedMatchesPerRowUnpack) {
  Rng rng(12);
  // Odd cols (13, 17) force flat rows to straddle byte boundaries; the
  // widening pairs cover the engine's 1 -> 2-bit promotion.
  const struct {
    int src_cell, dst_cell;
  } cases[] = {{4, 4}, {2, 2}, {1, 2}, {2, 4}, {1, 4}};
  for (const auto& c : cases) {
    for (std::int64_t cols : {1, 8, 13, 17}) {
      const std::int64_t rows = 5;
      std::vector<std::uint8_t> codes(
          static_cast<std::size_t>(rows * cols));
      for (auto& v : codes) {
        v = static_cast<std::uint8_t>(
            rng.uniform_int(0, (1 << c.src_cell) - 1));
      }
      std::vector<std::uint8_t> flat(
          static_cast<std::size_t>(packed_bytes(rows * cols, c.src_cell)));
      pack_codes(codes.data(), rows * cols, c.src_cell, flat.data());

      const std::int64_t rb = packed_row_bytes(cols, c.dst_cell);
      std::vector<std::uint8_t> aligned(static_cast<std::size_t>(rows * rb),
                                        0xFF);
      repack_rows_aligned(flat.data(), rows, cols, c.src_cell, c.dst_cell,
                          aligned.data());
      for (std::int64_t r = 0; r < rows; ++r) {
        std::vector<std::uint8_t> row(static_cast<std::size_t>(cols));
        unpack_codes(aligned.data() + r * rb, cols, c.dst_cell, row.data());
        for (std::int64_t j = 0; j < cols; ++j) {
          ASSERT_EQ(row[static_cast<std::size_t>(j)],
                    codes[static_cast<std::size_t>(r * cols + j)])
              << "src_cell " << c.src_cell << " dst_cell " << c.dst_cell
              << " cols " << cols << " row " << r << " col " << j;
        }
        // Row tails must be deterministic zeros (kernels read whole bytes).
        const std::int64_t tail_bits = 8 * rb - cols * c.dst_cell;
        if (tail_bits > 0) {
          const std::uint8_t mask =
              static_cast<std::uint8_t>(0xFFu << (8 - tail_bits));
          ASSERT_EQ(aligned[static_cast<std::size_t>((r + 1) * rb - 1)] & mask,
                    0);
        }
      }
    }
  }
  EXPECT_THROW(repack_rows_aligned(nullptr, 0, 0, 4, 2, nullptr),
               std::invalid_argument);
}

TEST(BitPack, RepackTransposeAlignedMatchesScalarTranspose) {
  Rng rng(13);
  for (int cell : {2, 4}) {
    const std::int64_t rows = 11, cols = 7;  // both ragged at every width
    std::vector<std::uint8_t> codes(static_cast<std::size_t>(rows * cols));
    for (auto& v : codes) {
      v = static_cast<std::uint8_t>(rng.uniform_int(0, (1 << cell) - 1));
    }
    std::vector<std::uint8_t> flat(
        static_cast<std::size_t>(packed_bytes(rows * cols, cell)));
    pack_codes(codes.data(), rows * cols, cell, flat.data());

    const std::int64_t rb = packed_row_bytes(rows, cell);
    std::vector<std::uint8_t> t(static_cast<std::size_t>(cols * rb), 0xFF);
    repack_transpose_aligned(flat.data(), rows, cols, cell, cell, t.data());
    for (std::int64_t jc = 0; jc < cols; ++jc) {
      std::vector<std::uint8_t> row(static_cast<std::size_t>(rows));
      unpack_codes(t.data() + jc * rb, rows, cell, row.data());
      for (std::int64_t r = 0; r < rows; ++r) {
        ASSERT_EQ(row[static_cast<std::size_t>(r)],
                  codes[static_cast<std::size_t>(r * cols + jc)])
            << "cell " << cell << " col " << jc << " row " << r;
      }
    }
  }
}

TEST(IntGemm, MatchesNaiveReference) {
  Rng rng(22);
  // Shapes straddling the 4x16 micro-tile and 256-deep panel boundaries.
  const std::int64_t shapes[][3] = {
      {1, 1, 1}, {4, 16, 8}, {5, 17, 3}, {7, 33, 129}, {12, 40, 300}};
  for (const auto& s : shapes) {
    const std::int64_t m = s[0], n = s[1], k = s[2];
    std::vector<std::uint8_t> a(static_cast<std::size_t>(m * k));
    std::vector<std::uint8_t> b(static_cast<std::size_t>(k * n));
    for (auto& v : a) v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    for (auto& v : b) v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    std::vector<std::int32_t> c(static_cast<std::size_t>(m * n), -7);
    igemm_u8_generic(m, n, k, a.data(), k, b.data(), n, c.data(), n);
    for (std::int64_t i = 0; i < m; ++i) {
      for (std::int64_t j = 0; j < n; ++j) {
        std::int32_t ref = 0;
        for (std::int64_t p = 0; p < k; ++p) {
          ref += static_cast<std::int32_t>(a[static_cast<std::size_t>(i * k + p)]) *
                 static_cast<std::int32_t>(b[static_cast<std::size_t>(p * n + j)]);
        }
        ASSERT_EQ(c[static_cast<std::size_t>(i * n + j)], ref)
            << m << "x" << n << "x" << k << " at (" << i << ", " << j << ")";
      }
    }
  }
}

TEST(IntGemm, RegisteredBackendsMatchGenericBitForBit) {
  // Every igemm implementation the registry enumerates (AVX2 vpmaddwd over
  // int16 pairs, VNNI vpdpbusd over offset s8 quads corrected by packed
  // column sums, ...) must agree exactly with the portable kernel — integer
  // accumulation has one right answer. Iterating the registry instead of
  // naming kernels means a newly registered backend is covered by merely
  // existing.
  Rng rng(55);
  const std::int64_t shapes[][3] = {
      {1, 1, 1},    {4, 16, 8},    {5, 17, 3},   {9, 1024, 27},
      {7, 33, 129}, {12, 40, 300}, {65, 64, 576}, {3, 4, 257}};
  for (const auto& s : shapes) {
    const std::int64_t m = s[0], n = s[1], k = s[2];
    std::vector<std::uint8_t> a(static_cast<std::size_t>(m * k));
    std::vector<std::uint8_t> b(static_cast<std::size_t>(k * n));
    for (auto& v : a) v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    for (auto& v : b) v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    std::vector<std::int32_t> ref(static_cast<std::size_t>(m * n), -1);
    igemm_u8_generic(m, n, k, a.data(), k, b.data(), n, ref.data(), n);

    std::vector<std::int32_t> got(static_cast<std::size_t>(m * n), -2);
    for (const backend::Backend* bk : backend::available_backends()) {
      std::fill(got.begin(), got.end(), -2);
      bk->igemm(m, n, k, a.data(), k, b.data(), n, got.data(), n);
      ASSERT_EQ(got, ref) << bk->name << " " << m << "x" << n << "x" << k;
    }
    // And whatever the active backend resolves to agrees as well.
    std::fill(got.begin(), got.end(), -4);
    backend::active().igemm(m, n, k, a.data(), k, b.data(), n, got.data(), n);
    ASSERT_EQ(got, ref) << "active " << m << "x" << n << "x" << k;
  }
}

TEST(IntGemm, MatchesFloatGemmOnSmallCodes) {
  // With k * 255^2 below 2^24 both GEMMs are exact, so they must agree
  // bit-for-bit after the float result is truncated back to int.
  Rng rng(33);
  const std::int64_t m = 9, n = 21, k = 100;
  std::vector<std::uint8_t> a(static_cast<std::size_t>(m * k));
  std::vector<std::uint8_t> b(static_cast<std::size_t>(k * n));
  Tensor af(Shape{m, k}), bf(Shape{k, n});
  for (std::int64_t i = 0; i < m * k; ++i) {
    a[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    af[i] = static_cast<float>(a[static_cast<std::size_t>(i)]);
  }
  for (std::int64_t i = 0; i < k * n; ++i) {
    b[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    bf[i] = static_cast<float>(b[static_cast<std::size_t>(i)]);
  }
  std::vector<std::int32_t> ci(static_cast<std::size_t>(m * n));
  backend::active().igemm(m, n, k, a.data(), k, b.data(), n, ci.data(), n);
  const Tensor cf = matmul(af, bf);
  for (std::int64_t i = 0; i < m * n; ++i) {
    EXPECT_EQ(static_cast<float>(ci[static_cast<std::size_t>(i)]), cf[i]);
  }
}

// --------------------------------------------------------------------------
// Layer-level parity: compiled plan vs the fake-quant training layer.
// --------------------------------------------------------------------------

// Conv inputs in these networks are post-ReLU, so their dynamic range
// starts at exactly 0 and the eqn-1 grid contains an exact zero — which
// makes the engine's padding code dequantize to 0.0, the same value the
// float path pads with. The tight parity tests use such inputs; the
// arbitrary-range border effect has its own test below.
Tensor post_relu_input(Shape shape, Rng& rng) {
  Tensor x(std::move(shape));
  rng.fill_normal(x, 0.1f, 1.0f);
  return relu(x);
}

TEST(InferConv, ParityPerBitwidth) {
  for (int bits : {8, 4, 2}) {
    Rng rng(100 + bits);
    nn::Conv2d conv(6, 10, 3, 1, 1, /*use_bias=*/true, "conv");
    nn::init_conv(conv, rng);
    rng.fill_uniform(conv.bias()->value, -0.3f, 0.3f);
    conv.set_bits(bits);
    conv.set_training(false);

    const Tensor x = post_relu_input(Shape{3, 6, 9, 9}, rng);
    const Tensor ref = conv.forward(x);

    const GemmLayerPlan l = plan_conv(conv, nullptr, /*fuse_relu=*/false);
    ASSERT_EQ(l.path, ExecPath::kInteger) << "bits " << bits;
    EXPECT_EQ(l.cell_bits, cell_bits_for(bits));
    const Tensor out = run_gemm_layer(l, x);
    EXPECT_LE(max_abs_diff(out, ref), parity_tol(ref)) << "bits " << bits;
  }
}

TEST(InferConv, ParityWithBatchNormFoldingAndRelu) {
  Rng rng(55);
  nn::Conv2d conv(4, 8, 3, 2, 1, /*use_bias=*/false, "conv");
  nn::init_conv(conv, rng);
  conv.set_bits(8);
  nn::BatchNorm2d bn(8);
  rng.fill_uniform(bn.gamma().value, 0.5f, 1.5f);
  rng.fill_uniform(bn.beta().value, -0.2f, 0.2f);
  // Non-trivial running statistics, as after real training: a few training
  // forwards over offset data move them away from the (0, 1) init.
  bn.set_training(true);
  for (int i = 0; i < 3; ++i) {
    Tensor warm(Shape{4, 8, 8, 8});
    rng.fill_normal(warm, 0.4f, 1.7f);
    bn.forward(warm);
  }
  conv.set_training(false);
  bn.set_training(false);

  const Tensor x = post_relu_input(Shape{2, 4, 8, 8}, rng);
  Tensor ref = bn.forward(conv.forward(x));
  ref = relu(ref);

  const GemmLayerPlan l = plan_conv(conv, &bn, /*fuse_relu=*/true);
  const Tensor out = run_gemm_layer(l, x);
  EXPECT_LE(max_abs_diff(out, ref), parity_tol(ref));
}

TEST(InferConv, PrunedChannelsAreZero) {
  Rng rng(66);
  nn::Conv2d conv(5, 12, 3, 1, 1, /*use_bias=*/true, "conv");
  nn::init_conv(conv, rng);
  conv.set_bits(8);
  conv.set_active_out_channels(7);
  conv.set_training(false);

  const Tensor x = post_relu_input(Shape{2, 5, 6, 6}, rng);
  const Tensor ref = conv.forward(x);
  const GemmLayerPlan l = plan_conv(conv, nullptr, /*fuse_relu=*/false);
  const Tensor out = run_gemm_layer(l, x);
  EXPECT_LE(max_abs_diff(out, ref), parity_tol(ref));
  // Masked channels are exactly zero on both paths.
  for (std::int64_t b = 0; b < 2; ++b) {
    for (std::int64_t c = 7; c < 12; ++c) {
      EXPECT_EQ(out.at(b, c, 3, 3), 0.0f);
    }
  }
}

TEST(InferConv, ArbitraryRangePaddingIsGridBounded) {
  // When the input range does not contain zero on-grid (e.g. a conv fed raw
  // data instead of ReLU output), the engine pads with the nearest-grid
  // code, off from the float path's exact 0.0 by at most half a step. The
  // border error is therefore bounded by step/2 * (weight magnitude * pad
  // taps); interior positions stay at float-rounding parity.
  Rng rng(44);
  nn::Conv2d conv(4, 6, 3, 1, 1, /*use_bias=*/false, "conv");
  nn::init_conv(conv, rng);
  conv.set_bits(8);
  conv.set_training(false);

  Tensor x(Shape{2, 4, 8, 8});
  rng.fill_normal(x, 0.3f, 1.0f);  // range straddles 0 but 0 is off-grid
  const Tensor ref = conv.forward(x);
  const GemmLayerPlan l = plan_conv(conv, nullptr, /*fuse_relu=*/false);
  const Tensor out = run_gemm_layer(l, x);

  const float step = (max_value(x) - min_value(x)) / 255.0f;
  const float wmag = std::max(std::abs(min_value(conv.weight().value)),
                              std::abs(max_value(conv.weight().value)));
  // A 3x3 corner patch has at most 5 padding taps.
  EXPECT_LE(max_abs_diff(out, ref), 0.5f * step * wmag * 5.0f + 1e-4f);
  // Interior positions (no padding in their patch) remain tightly matched.
  float interior_worst = 0.0f;
  for (std::int64_t b = 0; b < 2; ++b) {
    for (std::int64_t o = 0; o < 6; ++o) {
      for (std::int64_t y = 1; y < 7; ++y) {
        for (std::int64_t xo = 1; xo < 7; ++xo) {
          interior_worst = std::max(
              interior_worst, std::abs(out.at(b, o, y, xo) - ref.at(b, o, y, xo)));
        }
      }
    }
  }
  EXPECT_LE(interior_worst, parity_tol(ref));
}

TEST(InferLinear, ParityPerBitwidth) {
  for (int bits : {8, 4, 2}) {
    Rng rng(200 + bits);
    nn::Linear fc(24, 10, /*use_bias=*/true, "fc");
    nn::init_linear(fc, rng);
    fc.set_bits(bits);
    fc.set_training(false);

    Tensor x(Shape{5, 24});
    rng.fill_normal(x, 0.0f, 1.0f);
    const Tensor ref = fc.forward(x);

    const GemmLayerPlan l = plan_linear(fc, /*fuse_relu=*/false);
    ASSERT_EQ(l.path, ExecPath::kInteger) << "bits " << bits;
    const Tensor out = run_gemm_layer(l, x);
    EXPECT_LE(max_abs_diff(out, ref), parity_tol(ref)) << "bits " << bits;
  }
}

TEST(InferLinear, WideBitsFallBackToFloatAndMatchExactly) {
  Rng rng(77);
  nn::Linear fc(16, 6, /*use_bias=*/true, "fc");
  nn::init_linear(fc, rng);
  fc.set_bits(16);  // above the integer ceiling
  fc.set_training(false);
  Tensor x(Shape{4, 16});
  rng.fill_normal(x, 0.0f, 1.0f);
  const Tensor ref = fc.forward(x);

  const GemmLayerPlan l = plan_linear(fc, /*fuse_relu=*/false);
  EXPECT_EQ(l.path, ExecPath::kFloat);
  const Tensor out = run_gemm_layer(l, x);
  EXPECT_LE(max_abs_diff(out, ref), parity_tol(ref));
}

// --------------------------------------------------------------------------
// Whole-model parity.
// --------------------------------------------------------------------------

// Applies `bits` to every non-frozen unit (frozen ends keep their disabled
// quantizers, mirroring how Algorithm 1 leaves a converged model).
void set_uniform_bits(models::QuantizableModel& model, int bits) {
  quant::BitWidthPolicy policy = model.bit_policy();
  for (int i = 0; i < model.unit_count(); ++i) {
    if (!model.unit(i).frozen) policy.set(i, bits);
  }
  model.apply_bit_policy(policy);
}

double prediction_agreement(const std::vector<std::int64_t>& a,
                            const std::vector<std::int64_t>& b) {
  EXPECT_EQ(a.size(), b.size());
  std::size_t same = 0;
  for (std::size_t i = 0; i < a.size(); ++i) same += a[i] == b[i];
  return a.empty() ? 0.0 : static_cast<double>(same) / static_cast<double>(a.size());
}

TEST(InferEngine, VggPredictionsMatchFakeQuant) {
  Rng rng(7);
  models::VggConfig cfg;
  cfg.width_mult = 0.0625;
  cfg.num_classes = 10;
  auto model = models::build_vgg19(cfg, rng);
  set_uniform_bits(*model, 8);
  model->set_training(false);

  Tensor x(Shape{32, 3, 32, 32});
  rng.fill_normal(x, 0.0f, 1.0f);
  const Tensor ref_logits = model->forward(x);

  const IntInferenceEngine engine(compile(*model));
  EXPECT_GE(engine.plan().integer_layer_count(), 15);  // 15 non-frozen convs
  const Tensor logits = engine.forward(x);
  const float mag = std::max(std::abs(min_value(ref_logits)),
                             std::abs(max_value(ref_logits)));
  EXPECT_LE(mean_abs_diff(logits, ref_logits), 0.02f * std::max(mag, 1.0f));
  const double agree =
      prediction_agreement(engine.predict(x), argmax_rows(ref_logits));
  EXPECT_GE(agree, 0.95);
}

TEST(InferEngine, VggMixedPrecisionAgreement) {
  Rng rng(8);
  models::VggConfig cfg;
  cfg.width_mult = 0.0625;
  cfg.num_classes = 10;
  auto model = models::build_vgg19(cfg, rng);
  // Mixed 8/4/2 pattern over the non-frozen units, like a converged eqn-3
  // policy snapped to the hardware grid.
  quant::BitWidthPolicy policy = model->bit_policy();
  const int pattern[] = {8, 4, 2};
  for (int i = 0; i < model->unit_count(); ++i) {
    if (!model->unit(i).frozen) policy.set(i, pattern[i % 3]);
  }
  model->apply_bit_policy(policy);
  model->set_training(false);

  Tensor x(Shape{24, 3, 32, 32});
  rng.fill_normal(x, 0.0f, 1.0f);
  const Tensor ref_logits = model->forward(x);
  const IntInferenceEngine engine(compile(*model));
  // Sub-byte grids have coarse steps: an activation sitting on a code
  // boundary can land one 2-bit level away (a jump of a third of the
  // layer's range) under ~1e-6 of upstream rounding drift, and this
  // untrained model's random logits have small top-1 margins. Agreement is
  // therefore bounded well above chance (10 classes) but below the int8
  // bar; the per-bitwidth layer tests above pin the arithmetic itself.
  EXPECT_GE(prediction_agreement(engine.predict(x), argmax_rows(ref_logits)),
            0.7);
}

TEST(InferEngine, ResNetPredictionsMatchFakeQuant) {
  Rng rng(9);
  models::ResNetConfig cfg;
  cfg.width_mult = 0.0625;
  cfg.num_classes = 10;
  cfg.input_size = 16;
  auto model = models::build_resnet18(cfg, rng);
  set_uniform_bits(*model, 8);
  model->set_training(false);

  Tensor x(Shape{16, 3, 16, 16});
  rng.fill_normal(x, 0.0f, 1.0f);
  const Tensor ref_logits = model->forward(x);
  const IntInferenceEngine engine(compile(*model));
  const Tensor logits = engine.forward(x);
  const float mag = std::max(std::abs(min_value(ref_logits)),
                             std::abs(max_value(ref_logits)));
  EXPECT_LE(mean_abs_diff(logits, ref_logits), 0.02f * std::max(mag, 1.0f));
  EXPECT_GE(prediction_agreement(engine.predict(x), argmax_rows(ref_logits)),
            0.95);
}

// --------------------------------------------------------------------------
// Golden-logits regression.
// --------------------------------------------------------------------------
// For pinned seeds the logits are required to be BIT-identical to frozen
// fixtures on every backend runnable on this host. The GEMM kernels are
// bit-exact per the conformance harness and every other op in the backend
// tables is shared, so any hex mismatch here is an engine-integration bug
// (a wrong repack, stride, or accumulator read), never float rounding —
// which is why the comparison is on raw bits, not a tolerance.

std::string logits_hex(const Tensor& t) {
  std::string s;
  s.reserve(static_cast<std::size_t>(t.numel()) * 8);
  char word[16];
  const float* p = t.data();
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, p + i, sizeof(bits));
    std::snprintf(word, sizeof(word), "%08x", bits);
    s += word;
  }
  return s;
}

class ScopedBackend {
 public:
  explicit ScopedBackend(const backend::Backend* bk)
      : prev_(backend::exchange_backend_override(bk)) {}
  ~ScopedBackend() { backend::exchange_backend_override(prev_); }

 private:
  const backend::Backend* prev_;
};

struct GoldenModel {
  const char* name;
  std::uint64_t seed;
};

std::unique_ptr<models::QuantizableModel> build_golden_model(const char* name,
                                                             Rng& rng) {
  if (std::strcmp(name, "vgg19") == 0) {
    models::VggConfig cfg;
    cfg.width_mult = 0.0625;
    cfg.num_classes = 10;
    return models::build_vgg19(cfg, rng);
  }
  if (std::strcmp(name, "resnet18") == 0) {
    models::ResNetConfig cfg;
    cfg.width_mult = 0.0625;
    cfg.num_classes = 10;
    cfg.input_size = 16;
    return models::build_resnet18(cfg, rng);
  }
  models::MobileNetConfig cfg;
  cfg.width_mult = 0.25;
  cfg.num_classes = 10;
  return models::build_mobilenet_small(cfg, rng);
}

Tensor golden_input(const char* name, Rng& rng) {
  const std::int64_t hw = std::strcmp(name, "resnet18") == 0 ? 16 : 32;
  Tensor x(Shape{4, 3, hw, hw});
  rng.fill_normal(x, 0.0f, 1.0f);
  return x;
}

void apply_bit_setting(models::QuantizableModel& model, const char* setting) {
  if (std::strcmp(setting, "mixed") == 0) {
    quant::BitWidthPolicy policy = model.bit_policy();
    const int pattern[] = {8, 4, 2};
    for (int i = 0; i < model.unit_count(); ++i) {
      if (!model.unit(i).frozen) policy.set(i, pattern[i % 3]);
    }
    model.apply_bit_policy(policy);
    return;
  }
  // "int16" is the models' untouched build-time policy: every unit at 16
  // bits, so every layer (and every residual skip quantizer) runs in float.
  if (std::strcmp(setting, "int16") == 0) return;
  set_uniform_bits(model, std::atoi(setting + 3));  // "intN"
}

// Frozen golden logits: tests/fixtures/golden_logits.txt holds one line per
// case, `model setting b<batch> <plan_fingerprint hex> <logits hex>`, and
// every backend runnable on this host must reproduce each line's logits bit
// for bit. The fingerprint column tells two failures apart: a plan built
// differently (another toolchain's normal_distribution, a compiler change)
// versus an engine that computes different logits from the same plan. A
// matching-logits line whose plan bytes moved is reported, not failed: the
// plan may legitimately change shape (op order, slot layout) while the
// served logits stay put. On any mismatch the test prints the replacement
// line, so a deliberate re-freeze is a copy into the file.
struct FixtureLine {
  std::string fingerprint;
  std::string logits;
};

std::map<std::string, FixtureLine> read_fixture(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::map<std::string, FixtureLine> lines;
  std::string model, setting, batch;
  FixtureLine line;
  while (in >> model >> setting >> batch >> line.fingerprint >> line.logits) {
    const std::string key = model + " " + setting + " " + batch;
    EXPECT_TRUE(lines.emplace(key, line).second) << "duplicate case " << key;
  }
  EXPECT_TRUE(in.eof()) << path << ": malformed line after "
                        << lines.size() << " cases";
  return lines;
}

Tensor first_rows(const Tensor& x, std::int64_t rows) {
  const std::int64_t per_row = x.numel() / x.shape().dim(0);
  Tensor out(x.shape().with_dim(0, rows));
  std::memcpy(out.data(), x.data(),
              static_cast<std::size_t>(rows * per_row) * sizeof(float));
  return out;
}

TEST(GoldenLogits, MatchFrozenFixturesOnEveryBackend) {
  struct Case {
    GoldenModel model;
    const char* setting;
  };
  std::vector<Case> cases;
  const GoldenModel kModels[] = {
      {"vgg19", 101}, {"resnet18", 102}, {"mobilenet_small", 103}};
  for (const GoldenModel& gm : kModels) {
    for (const char* setting : {"int8", "int4", "int2", "mixed"}) {
      cases.push_back({gm, setting});
    }
  }
  // Float residual skip quantizers (bits above the integer ceiling) only
  // occur in a wide-bit ResNet.
  cases.push_back({{"resnet18", 102}, "int16"});

  const std::string path =
      std::string(ADQ_TEST_FIXTURE_DIR) + "/golden_logits.txt";
  const std::map<std::string, FixtureLine> fixture = read_fixture(path);
  std::size_t checked = 0;
  for (const Case& c : cases) {
    Rng rng(c.model.seed);
    auto model = build_golden_model(c.model.name, rng);
    apply_bit_setting(*model, c.setting);
    model->set_training(false);
    const Tensor x4 = golden_input(c.model.name, rng);
    const InferencePlan plan = compile(*model);
    char fp[17];
    std::snprintf(fp, sizeof(fp), "%016llx",
                  static_cast<unsigned long long>(plan_fingerprint(plan)));

    for (const std::int64_t batch : {std::int64_t{4}, std::int64_t{1}}) {
      const Tensor x = batch == 4 ? x4 : first_rows(x4, batch);
      const std::string key = std::string(c.model.name) + " " + c.setting +
                              " b" + std::to_string(batch);
      const auto it = fixture.find(key);
      for (const backend::Backend* bk : backend::available_backends()) {
        const ScopedBackend scope(bk);
        const IntInferenceEngine engine(plan);
        const std::string hex = logits_hex(engine.forward(x));
        const std::string replacement = key + " " + fp + " " + hex;
        if (it == fixture.end()) {
          ADD_FAILURE() << key << ": no fixture line; add\n" << replacement;
          break;
        }
        const bool same_plan = it->second.fingerprint == fp;
        if (hex != it->second.logits) {
          ADD_FAILURE()
              << key << " on " << bk->name << ": logits differ from the fixture. "
              << (same_plan
                      ? "The plan is byte-identical, so the engine changed "
                        "the logits."
                      : "The plan fingerprint differs too (fixture " +
                            it->second.fingerprint +
                            "): the model or plan was built differently.")
              << " Replacement line:\n"
              << replacement;
        } else if (!same_plan) {
          std::printf("[ note ] %s on %s: logits match, plan fingerprint "
                      "moved %s -> %s\n",
                      key.c_str(), bk->name, it->second.fingerprint.c_str(),
                      fp);
        }
      }
      checked += it != fixture.end();
    }
  }
  EXPECT_EQ(checked, fixture.size())
      << path << " holds lines for cases this test no longer runs";
}

// The engine's steady-state weight views keep the <= 4-bit layers' packed
// cells, so the resident execution bytes of an int4 plan must sit below
// the byte-per-code views of the same network at int8.
TEST(InferEngine, PackedExecViewShrinksSteadyStateWeights) {
  Rng rng(11);
  models::VggConfig cfg;
  cfg.width_mult = 0.0625;
  cfg.num_classes = 10;
  auto model = models::build_vgg19(cfg, rng);
  model->set_training(false);
  set_uniform_bits(*model, 8);
  const std::int64_t byte_bytes =
      IntInferenceEngine(compile(*model)).exec_weight_bytes();
  set_uniform_bits(*model, 4);
  const std::int64_t packed_bytes =
      IntInferenceEngine(compile(*model)).exec_weight_bytes();
  // 4-bit cells halve the byte-per-code views (frozen float ends shared).
  EXPECT_LT(packed_bytes, byte_bytes);
}

TEST(InferEngine, SubByteWeightsShrinkThePlan) {
  Rng rng(10);
  models::VggConfig cfg;
  cfg.width_mult = 0.0625;
  cfg.num_classes = 10;
  auto model = models::build_vgg19(cfg, rng);

  set_uniform_bits(*model, 8);
  const std::size_t bytes8 = compile(*model).weight_bytes();
  set_uniform_bits(*model, 4);
  const std::size_t bytes4 = compile(*model).weight_bytes();
  set_uniform_bits(*model, 2);
  const std::size_t bytes2 = compile(*model).weight_bytes();

  // The frozen float ends are shared, so the ordering is strict but not a
  // clean 2x per halving.
  EXPECT_LT(bytes4, bytes8);
  EXPECT_LT(bytes2, bytes4);
  // The 8-bit plan stores one byte per weight in the integer layers, i.e.
  // < 1/2 of the all-float footprint even with the frozen 16-bit ends.
  set_uniform_bits(*model, 16);
  const std::size_t bytes_float = compile(*model).weight_bytes();
  EXPECT_LT(bytes8, bytes_float / 2);
}

}  // namespace
}  // namespace adq::infer
