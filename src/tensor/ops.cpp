#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace adq {
namespace {

void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  if (a.shape() != b.shape()) {
    throw std::invalid_argument(std::string(op) + ": shape mismatch " +
                                a.shape().to_string() + " vs " +
                                b.shape().to_string());
  }
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "add");
  Tensor out(a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  for (std::int64_t i = 0; i < a.numel(); ++i) po[i] = pa[i] + pb[i];
  return out;
}

void add_inplace(Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "add_inplace");
  float* pa = a.data();
  const float* pb = b.data();
  for (std::int64_t i = 0; i < a.numel(); ++i) pa[i] += pb[i];
}

void axpy(Tensor& a, float alpha, const Tensor& b) {
  check_same_shape(a, b, "axpy");
  float* pa = a.data();
  const float* pb = b.data();
  for (std::int64_t i = 0; i < a.numel(); ++i) pa[i] += alpha * pb[i];
}

Tensor sub(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "sub");
  Tensor out(a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  for (std::int64_t i = 0; i < a.numel(); ++i) po[i] = pa[i] - pb[i];
  return out;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "mul");
  Tensor out(a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  for (std::int64_t i = 0; i < a.numel(); ++i) po[i] = pa[i] * pb[i];
  return out;
}

Tensor scale(const Tensor& a, float alpha) {
  Tensor out(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  for (std::int64_t i = 0; i < a.numel(); ++i) po[i] = alpha * pa[i];
  return out;
}

Tensor relu(const Tensor& x) {
  Tensor out(x.shape());
  const float* px = x.data();
  float* po = out.data();
  for (std::int64_t i = 0; i < x.numel(); ++i) po[i] = px[i] > 0.0f ? px[i] : 0.0f;
  return out;
}

double sum(const Tensor& x) {
  double s = 0.0;
  const float* p = x.data();
  for (std::int64_t i = 0; i < x.numel(); ++i) s += p[i];
  return s;
}

double mean(const Tensor& x) {
  return x.numel() == 0 ? 0.0 : sum(x) / static_cast<double>(x.numel());
}

std::int64_t count_nonzero(const Tensor& x, float eps) {
  std::int64_t n = 0;
  const float* p = x.data();
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    if (std::fabs(p[i]) > eps) ++n;
  }
  return n;
}

float max_abs(const Tensor& x) {
  float m = 0.0f;
  const float* p = x.data();
  for (std::int64_t i = 0; i < x.numel(); ++i) m = std::max(m, std::fabs(p[i]));
  return m;
}

float min_value(const Tensor& x) {
  if (x.numel() == 0) throw std::invalid_argument("min_value: empty tensor");
  return *std::min_element(x.data(), x.data() + x.numel());
}

float max_value(const Tensor& x) {
  if (x.numel() == 0) throw std::invalid_argument("max_value: empty tensor");
  return *std::max_element(x.data(), x.data() + x.numel());
}

std::pair<float, float> min_max(const float* x, std::int64_t n) {
  float lo = x[0], hi = x[0];
  for (std::int64_t i = 1; i < n; ++i) {
    lo = std::min(lo, x[i]);
    hi = std::max(hi, x[i]);
  }
  return {lo, hi};
}

std::pair<float, float> min_max(const Tensor& x) {
  if (x.numel() == 0) throw std::invalid_argument("min_max: empty tensor");
  return min_max(x.data(), x.numel());
}

std::vector<std::int64_t> argmax_rows(const Tensor& x) {
  if (x.shape().rank() != 2) {
    throw std::invalid_argument("argmax_rows: tensor must be rank 2");
  }
  const std::int64_t rows = x.shape().dim(0), cols = x.shape().dim(1);
  std::vector<std::int64_t> out(static_cast<std::size_t>(rows));
  for (std::int64_t i = 0; i < rows; ++i) {
    const float* row = x.data() + i * cols;
    out[static_cast<std::size_t>(i)] =
        std::max_element(row, row + cols) - row;
  }
  return out;
}

Tensor stack_samples(const std::vector<const Tensor*>& samples) {
  if (samples.empty()) {
    throw std::invalid_argument("stack_samples: no samples");
  }
  const Shape& sample_shape = samples.front()->shape();
  Tensor out(sample_shape.prepended(static_cast<std::int64_t>(samples.size())));
  const std::int64_t n = samples.front()->numel();
  float* dst = out.data();
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (samples[i]->shape() != sample_shape) {
      throw std::invalid_argument("stack_samples: shape mismatch " +
                                  samples[i]->shape().to_string() + " vs " +
                                  sample_shape.to_string());
    }
    const float* src = samples[i]->data();
    std::copy(src, src + n, dst + static_cast<std::int64_t>(i) * n);
  }
  return out;
}

Tensor take_sample(const Tensor& batch, std::int64_t index) {
  const std::int64_t count =
      batch.shape().rank() == 0 ? 0 : batch.shape().dim(0);
  if (index < 0 || index >= count) {
    throw std::out_of_range("take_sample: index " + std::to_string(index) +
                            " out of range for batch " +
                            batch.shape().to_string());
  }
  Tensor out(batch.shape().tail());
  const std::int64_t n = out.numel();
  const float* src = batch.data() + index * n;
  std::copy(src, src + n, out.data());
  return out;
}

bool allclose(const Tensor& a, const Tensor& b, float atol) {
  if (a.shape() != b.shape()) return false;
  const float* pa = a.data();
  const float* pb = b.data();
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    if (std::fabs(pa[i] - pb[i]) > atol) return false;
  }
  return true;
}

}  // namespace adq
