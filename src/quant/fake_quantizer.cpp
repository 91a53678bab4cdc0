#include "quant/fake_quantizer.h"

#include <stdexcept>

#include "tensor/ops.h"

namespace adq::quant {

void FakeQuantizer::set_bits(int bits) {
  if (bits < 1) {
    throw std::invalid_argument("FakeQuantizer: bits must be >= 1, got " +
                                std::to_string(bits));
  }
  bits_ = bits;
}

void FakeQuantizer::observe(const Tensor& x) {
  const auto [lo, hi] = min_max(x);
  if (mode_ == RangeMode::kPerBatch || !seen_) {
    range_min_ = lo;
    range_max_ = hi;
  } else {
    range_min_ = ema_decay_ * range_min_ + (1.0f - ema_decay_) * lo;
    range_max_ = ema_decay_ * range_max_ + (1.0f - ema_decay_) * hi;
  }
  seen_ = true;
}

Tensor FakeQuantizer::apply(const Tensor& x) {
  if (!enabled_ || bits_ >= 24 || x.numel() == 0) return x;
  observe(x);
  return fake_quantize(x, range_min_, range_max_, bits_);
}

}  // namespace adq::quant
