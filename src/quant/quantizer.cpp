#include "quant/quantizer.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "tensor/ops.h"

namespace adq::quant {

std::int64_t max_code(int bits) {
  if (bits < 1 || bits > 31) {
    throw std::invalid_argument("max_code: bits must be in [1, 31], got " +
                                std::to_string(bits));
  }
  return (std::int64_t{1} << bits) - 1;
}

std::int64_t quantize_code(float x, float x_min, float x_max, int bits) {
  const std::int64_t levels = max_code(bits);
  if (x_max <= x_min) return 0;
  const float clamped = std::clamp(x, x_min, x_max);
  const float scaled = (clamped - x_min) * static_cast<float>(levels) / (x_max - x_min);
  return static_cast<std::int64_t>(std::lround(scaled));
}

float dequantize_code(std::int64_t code, float x_min, float x_max, int bits) {
  const std::int64_t levels = max_code(bits);
  if (x_max <= x_min) return x_min;
  return x_min + static_cast<float>(code) * (x_max - x_min) / static_cast<float>(levels);
}

float fake_quantize_value(float x, float x_min, float x_max, int bits) {
  return dequantize_code(quantize_code(x, x_min, x_max, bits), x_min, x_max, bits);
}

Tensor fake_quantize(const Tensor& x, int bits) {
  if (x.numel() == 0) return x;
  const auto [lo, hi] = min_max(x);
  return fake_quantize(x, lo, hi, bits);
}

namespace {

// Shared kernel of the tensor and buffer entry points, so the arena
// executor's in-place snap is bit-identical to the training-path tensor
// version by construction. Identity cases (wide grid, degenerate range)
// copy when the caller gave a distinct output buffer.
void fake_quantize_buf(const float* px, std::int64_t n, float x_min,
                       float x_max, int bits, float* po) {
  if (bits >= 24 || n == 0 || x_max <= x_min) {
    if (po != px && n != 0) std::copy(px, px + n, po);
    return;
  }
  const std::int64_t levels = max_code(bits);
  const float scale = (x_max - x_min) / static_cast<float>(levels);
  const float inv_scale = static_cast<float>(levels) / (x_max - x_min);
  // Round to nearest-even by the 2^23 magic number: for 0 <= v <= 2^23,
  // v + 2^23 lands where the float spacing is exactly 1, so the add itself
  // rounds v to an integer (ties to even, the default FP environment), and
  // subtracting 2^23 back is exact. bits <= 23 keeps v within range, so
  // this is bit-identical to std::nearbyint(v), but a plain add/sub pair
  // that vectorises instead of a libm call per element. The identity needs
  // v rounded to float before the add, so this file is built with
  // -ffp-contract=off (no fused multiply-add of v's product into it).
  constexpr float kRoundMagic = 8388608.0f;  // 2^23
  for (std::int64_t i = 0; i < n; ++i) {
    const float clamped = std::clamp(px[i], x_min, x_max);
    const float v = (clamped - x_min) * inv_scale;
    const float code = (v + kRoundMagic) - kRoundMagic;
    po[i] = x_min + code * scale;
  }
}

}  // namespace

Tensor fake_quantize(const Tensor& x, float x_min, float x_max, int bits) {
  if (bits >= 24 || x.numel() == 0 || x_max <= x_min) return x;
  Tensor out(x.shape());
  fake_quantize_buf(x.data(), x.numel(), x_min, x_max, bits, out.data());
  return out;
}

void fake_quantize_into(const float* x, std::int64_t n, int bits, float* out) {
  if (n == 0) return;
  // The observation fake_quantize(Tensor, bits) makes.
  const auto [lo, hi] = min_max(x, n);
  fake_quantize_buf(x, n, lo, hi, bits, out);
}

std::vector<std::int64_t> quantize_codes(const Tensor& x, float x_min,
                                         float x_max, int bits) {
  std::vector<std::int64_t> codes(static_cast<std::size_t>(x.numel()));
  const float* px = x.data();
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    codes[static_cast<std::size_t>(i)] = quantize_code(px[i], x_min, x_max, bits);
  }
  return codes;
}

}  // namespace adq::quant
