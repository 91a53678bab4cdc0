// Unit and property tests for the quantization library: eqn-1 codes and
// grids, fake-quant round-trips, the stateful FakeQuantizer, eqn-3 bit
// updates, and the PIM hardware rounding grid.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "quant/bitwidth.h"
#include "quant/fake_quantizer.h"
#include "quant/quantizer.h"
#include "tensor/ops.h"
#include "tensor/rng.h"

namespace adq::quant {
namespace {

TEST(Quantizer, MaxCode) {
  EXPECT_EQ(max_code(1), 1);
  EXPECT_EQ(max_code(2), 3);
  EXPECT_EQ(max_code(8), 255);
  EXPECT_EQ(max_code(16), 65535);
  EXPECT_THROW(max_code(0), std::invalid_argument);
  EXPECT_THROW(max_code(32), std::invalid_argument);
}

TEST(Quantizer, CodeEndpoints) {
  EXPECT_EQ(quantize_code(-1.0f, -1.0f, 1.0f, 4), 0);
  EXPECT_EQ(quantize_code(1.0f, -1.0f, 1.0f, 4), 15);
  // Values outside the range clamp.
  EXPECT_EQ(quantize_code(-9.0f, -1.0f, 1.0f, 4), 0);
  EXPECT_EQ(quantize_code(9.0f, -1.0f, 1.0f, 4), 15);
}

TEST(Quantizer, PaperExampleEqn1) {
  // eqn 1 with k=3, range [0, 7]: x=3.3 -> round(3.3 * 7/7) = 3.
  EXPECT_EQ(quantize_code(3.3f, 0.0f, 7.0f, 3), 3);
}

TEST(Quantizer, DequantizeInvertsEndpoints) {
  EXPECT_FLOAT_EQ(dequantize_code(0, -2.0f, 6.0f, 5), -2.0f);
  EXPECT_FLOAT_EQ(dequantize_code(31, -2.0f, 6.0f, 5), 6.0f);
}

TEST(Quantizer, DegenerateRange) {
  EXPECT_EQ(quantize_code(5.0f, 5.0f, 5.0f, 4), 0);
  EXPECT_FLOAT_EQ(dequantize_code(0, 5.0f, 5.0f, 4), 5.0f);
}

TEST(FakeQuantize, OneBitSnapsToEndpoints) {
  Tensor x(Shape{5}, std::vector<float>{0.0f, 0.2f, 0.5f, 0.8f, 1.0f});
  const Tensor y = fake_quantize(x, 0.0f, 1.0f, 1);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[1], 0.0f);
  EXPECT_FLOAT_EQ(y[3], 1.0f);
  EXPECT_FLOAT_EQ(y[4], 1.0f);
}

TEST(FakeQuantize, HighBitsIsIdentity) {
  Rng rng(1);
  Tensor x(Shape{64});
  rng.fill_normal(x, 0.0f, 1.0f);
  const Tensor y = fake_quantize(x, 24);
  EXPECT_TRUE(allclose(x, y, 0.0f));
}

TEST(FakeQuantize, PreservesMinMax) {
  Rng rng(2);
  Tensor x(Shape{128});
  rng.fill_normal(x, 0.0f, 2.0f);
  const Tensor y = fake_quantize(x, 4);
  EXPECT_FLOAT_EQ(min_value(y), min_value(x));
  EXPECT_FLOAT_EQ(max_value(y), max_value(x));
}

class FakeQuantBits : public ::testing::TestWithParam<int> {};

TEST_P(FakeQuantBits, ErrorBoundedByHalfStep) {
  // Property: |x - q(x)| <= step/2 where step = range / (2^k - 1).
  const int bits = GetParam();
  Rng rng(3 + bits);
  Tensor x(Shape{256});
  rng.fill_uniform(x, -3.0f, 5.0f);
  const float step = (max_value(x) - min_value(x)) / static_cast<float>(max_code(bits));
  const Tensor y = fake_quantize(x, bits);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    EXPECT_LE(std::fabs(x[i] - y[i]), step * 0.5f + 1e-5f);
  }
}

TEST_P(FakeQuantBits, LevelCountBounded) {
  // Property: a k-bit grid admits at most 2^k distinct values. With N
  // samples the observable count is additionally capped at N, so the exact
  // bound is min(2^k, N); for k >= 12 (2^k >= N here) the sample-count cap
  // is the binding constraint and the grid cap is vacuous, but the property
  // itself holds at every bit-width — no skip needed.
  const int bits = GetParam();
  Rng rng(17 + bits);
  Tensor x(Shape{4096});
  rng.fill_normal(x, 0.0f, 1.0f);
  const Tensor y = fake_quantize(x, bits);
  std::vector<float> vals(y.data(), y.data() + y.numel());
  std::sort(vals.begin(), vals.end());
  vals.erase(std::unique(vals.begin(), vals.end()), vals.end());
  EXPECT_LE(static_cast<std::int64_t>(vals.size()),
            std::min(x.numel(), std::int64_t{1} << bits));
}

TEST_P(FakeQuantBits, Idempotent) {
  // Property: quantizing an already-quantized tensor is the identity.
  const int bits = GetParam();
  Rng rng(29 + bits);
  Tensor x(Shape{128});
  rng.fill_normal(x, 0.0f, 1.0f);
  const Tensor once = fake_quantize(x, bits);
  const Tensor twice = fake_quantize(once, bits);
  EXPECT_TRUE(allclose(once, twice, 1e-6f));
}

INSTANTIATE_TEST_SUITE_P(Bits, FakeQuantBits, ::testing::Values(1, 2, 3, 4, 5, 8, 11, 16));

// The std::nearbyint formula fake_quantize used to evaluate per element; its
// 2^23 magic-number rounding must reproduce it byte for byte.
float nearbyint_fake_quant(float x, float lo, float hi, int bits) {
  if (bits >= 24 || hi <= lo) return x;
  const float levels = static_cast<float>(max_code(bits));
  const float scale = (hi - lo) / levels;
  const float inv_scale = levels / (hi - lo);
  const float code = std::nearbyint((std::clamp(x, lo, hi) - lo) * inv_scale);
  return lo + code * scale;
}

// Fails (at most a few reports) unless fake_quantize(x, lo, hi, bits) is
// bytewise the nearbyint reference.
void expect_matches_nearbyint(const std::vector<float>& xs, float lo, float hi,
                              int bits) {
  Tensor x(Shape{static_cast<std::int64_t>(xs.size())});
  std::copy(xs.begin(), xs.end(), x.data());
  const Tensor got = fake_quantize(x, lo, hi, bits);
  int reported = 0;
  for (std::size_t i = 0; i < xs.size() && reported < 3; ++i) {
    const float want = nearbyint_fake_quant(xs[i], lo, hi, bits);
    const float have = got[static_cast<std::int64_t>(i)];
    if (std::memcmp(&want, &have, sizeof(float)) != 0) {
      ADD_FAILURE() << "bits=" << bits << " range [" << lo << ", " << hi
                    << "] x=" << xs[i] << ": got " << have << ", want "
                    << want;
      ++reported;
    }
  }
}

TEST(FakeQuantize, MagicRoundingMatchesNearbyintBytewise) {
  Rng rng(404);
  for (int bits = 1; bits <= 23; ++bits) {
    // Random inputs, some outside the range (clamped), random ranges.
    for (int trial = 0; trial < 4; ++trial) {
      const float lo = rng.uniform(-2.0f, 0.5f);
      const float hi = lo + rng.uniform(1e-3f, 4.0f);
      std::vector<float> xs(2048);
      for (float& v : xs) v = rng.uniform(lo - 1.0f, hi + 1.0f);
      expect_matches_nearbyint(xs, lo, hi, bits);
    }
    // Exact ties: on [0, levels] the scale is 1, so k + 0.5 sits halfway
    // between two codes and must round to the even one.
    const std::int64_t levels = max_code(bits);
    std::vector<float> ties;
    for (int i = 0; i < 512; ++i) {
      ties.push_back(static_cast<float>(rng.uniform_int(0, levels - 1)) + 0.5f);
    }
    ties.push_back(0.5f);
    ties.push_back(static_cast<float>(levels) - 0.5f);
    expect_matches_nearbyint(ties, 0.0f, static_cast<float>(levels), bits);
  }
  // Signed zeros at and inside either end of the range.
  const std::vector<float> zeros = {0.0f, -0.0f, 1.0f, -1.0f};
  for (const int bits : {1, 2, 4, 8, 23}) {
    expect_matches_nearbyint(zeros, 0.0f, 1.0f, bits);
    expect_matches_nearbyint(zeros, -0.0f, 1.0f, bits);
    expect_matches_nearbyint(zeros, -1.0f, 0.0f, bits);
    expect_matches_nearbyint(zeros, -1.0f, -0.0f, bits);
    expect_matches_nearbyint(zeros, -1.0f, 1.0f, bits);
  }
  // Degenerate ranges pass the input through unchanged.
  const std::vector<float> xs = {-2.0f, -0.0f, 0.0f, 0.25f, 3.0f};
  expect_matches_nearbyint(xs, 0.25f, 0.25f, 4);
  expect_matches_nearbyint(xs, 1.0f, -1.0f, 4);
  expect_matches_nearbyint(xs, -1.0f, 1.0f, 24);
}

TEST(QuantizeCodes, RoundTripThroughDequantize) {
  Rng rng(5);
  Tensor x(Shape{64});
  rng.fill_uniform(x, -1.0f, 1.0f);
  const float lo = min_value(x), hi = max_value(x);
  const auto codes = quantize_codes(x, lo, hi, 6);
  const Tensor y = fake_quantize(x, lo, hi, 6);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    EXPECT_NEAR(dequantize_code(codes[static_cast<std::size_t>(i)], lo, hi, 6),
                y[i], 1e-5f);
  }
}

TEST(FakeQuantizerState, DisabledIsIdentity) {
  FakeQuantizer q(2);
  q.set_enabled(false);
  Rng rng(6);
  Tensor x(Shape{32});
  rng.fill_normal(x, 0.0f, 1.0f);
  EXPECT_TRUE(allclose(q.apply(x), x, 0.0f));
}

TEST(FakeQuantizerState, ObservesPerBatchRange) {
  FakeQuantizer q(8, RangeMode::kPerBatch);
  Tensor x(Shape{3}, std::vector<float>{-2.0f, 0.0f, 4.0f});
  q.apply(x);
  EXPECT_FLOAT_EQ(q.range_min(), -2.0f);
  EXPECT_FLOAT_EQ(q.range_max(), 4.0f);
  Tensor y(Shape{3}, std::vector<float>{-1.0f, 0.0f, 1.0f});
  q.apply(y);
  EXPECT_FLOAT_EQ(q.range_min(), -1.0f);  // per-batch: range follows input
  EXPECT_FLOAT_EQ(q.range_max(), 1.0f);
}

TEST(FakeQuantizerState, EmaRangeSmooths) {
  FakeQuantizer q(8, RangeMode::kEma, 0.5f);
  Tensor a(Shape{2}, std::vector<float>{0.0f, 4.0f});
  Tensor b(Shape{2}, std::vector<float>{0.0f, 0.0f});
  q.apply(a);
  q.apply(b);
  EXPECT_FLOAT_EQ(q.range_max(), 2.0f);  // 0.5*4 + 0.5*0
}

TEST(FakeQuantizerState, SetBitsValidates) {
  FakeQuantizer q(8);
  EXPECT_THROW(q.set_bits(0), std::invalid_argument);
  q.set_bits(3);
  EXPECT_EQ(q.bits(), 3);
}

TEST(HardwareRounding, Grid) {
  EXPECT_EQ(round_to_hardware_bits(1), 2);
  EXPECT_EQ(round_to_hardware_bits(2), 2);
  EXPECT_EQ(round_to_hardware_bits(3), 4);
  EXPECT_EQ(round_to_hardware_bits(4), 4);
  EXPECT_EQ(round_to_hardware_bits(5), 8);
  EXPECT_EQ(round_to_hardware_bits(8), 8);
  EXPECT_EQ(round_to_hardware_bits(9), 16);
  EXPECT_EQ(round_to_hardware_bits(16), 16);
  EXPECT_EQ(round_to_hardware_bits(22), 16);  // saturates at the top
  EXPECT_THROW(round_to_hardware_bits(0), std::invalid_argument);
}

TEST(UpdateBits, PaperExampleEqn3) {
  // Paper: AD {0.9, 0.3, 0.5} with bits {16, 10, 8} -> {14, 3, 4}.
  EXPECT_EQ(update_bits(16, 0.9), 14);
  EXPECT_EQ(update_bits(10, 0.3), 3);
  EXPECT_EQ(update_bits(8, 0.5), 4);
}

TEST(UpdateBits, FlooredAtOneBit) {
  EXPECT_EQ(update_bits(2, 0.1), 1);
  EXPECT_EQ(update_bits(1, 0.0), 1);
}

TEST(UpdateBits, DensityOneIsFixedPoint) {
  for (int k = 1; k <= 16; ++k) EXPECT_EQ(update_bits(k, 1.0), k);
}

TEST(UpdateBits, RoundingModes) {
  EXPECT_EQ(update_bits(10, 0.55, Rounding::kNearest), 6);
  EXPECT_EQ(update_bits(10, 0.55, Rounding::kFloor), 5);
  EXPECT_EQ(update_bits(10, 0.51, Rounding::kCeil), 6);
}

TEST(BitWidthPolicy, UniformAndToString) {
  const BitWidthPolicy p = BitWidthPolicy::uniform(3, 16);
  EXPECT_EQ(p.size(), 3);
  EXPECT_EQ(p.to_string(), "[16, 16, 16]");
}

TEST(BitWidthPolicy, UpdatedRespectsFrozen) {
  const BitWidthPolicy p({16, 16, 16});
  const BitWidthPolicy q = p.updated({0.5, 0.5, 0.5}, {true, false, true});
  EXPECT_EQ(q.at(0), 16);
  EXPECT_EQ(q.at(1), 8);
  EXPECT_EQ(q.at(2), 16);
}

TEST(BitWidthPolicy, UpdatedSizeMismatchThrows) {
  const BitWidthPolicy p({16, 16});
  EXPECT_THROW(p.updated({0.5}, {false, false}), std::invalid_argument);
}

TEST(BitWidthPolicy, HardwareRounded) {
  const BitWidthPolicy p({1, 3, 5, 9, 16});
  const BitWidthPolicy q = p.hardware_rounded();
  EXPECT_EQ(q.bits(), (std::vector<int>{2, 4, 8, 16, 16}));
}

TEST(BitWidthPolicy, IterativeUpdatesConvergeAtDensityOne) {
  // Property behind Algorithm 1's termination: once AD = 1.0 everywhere,
  // eqn 3 is a fixed point and the policy stops changing.
  BitWidthPolicy p({16, 12, 9});
  const std::vector<bool> frozen{false, false, false};
  p = p.updated({0.5, 0.5, 0.5}, frozen);
  const BitWidthPolicy fixed = p.updated({1.0, 1.0, 1.0}, frozen);
  EXPECT_EQ(p, fixed);
}

}  // namespace
}  // namespace adq::quant
