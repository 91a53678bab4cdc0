#include "nn/depthwise.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "tensor/parallel.h"

namespace adq::nn {

DepthwiseConv2d::DepthwiseConv2d(std::int64_t channels, std::int64_t kernel,
                                 std::int64_t stride, std::int64_t pad,
                                 bool use_bias, std::string name)
    : name_(std::move(name)),
      channels_(channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      use_bias_(use_bias),
      active_out_channels_(channels),
      weight_(name_ + ".weight", Shape{channels, kernel * kernel}),
      bias_(name_ + ".bias", Shape{channels}) {}

void DepthwiseConv2d::mask_pruned_channels(Tensor& nchw) const {
  if (active_out_channels_ >= channels_) return;
  const std::int64_t B = nchw.shape().dim(0);
  const std::int64_t hw = nchw.shape().dim(2) * nchw.shape().dim(3);
  for (std::int64_t b = 0; b < B; ++b) {
    float* base = nchw.data() + (b * channels_ + active_out_channels_) * hw;
    std::fill(base, base + (channels_ - active_out_channels_) * hw, 0.0f);
  }
}

Tensor DepthwiseConv2d::forward(const Tensor& x) {
  if (x.shape().rank() != 4 || x.shape().dim(1) != channels_) {
    throw std::invalid_argument(name_ + ": expected [B, " +
                                std::to_string(channels_) + ", H, W], got " +
                                x.shape().to_string());
  }
  const std::int64_t B = x.shape().dim(0);
  const std::int64_t H = x.shape().dim(2), W = x.shape().dim(3);
  const std::int64_t oh = out_h(H), ow = out_h(W);

  cached_input_q_ = input_quant_.apply(x);
  cached_weight_q_ = weight_quant_.apply(weight_.value);

  Tensor out(Shape{B, channels_, oh, ow});
  const float* wq = cached_weight_q_.data();
  parallel_for(0, B * channels_, [&](std::int64_t p0, std::int64_t p1) {
    for (std::int64_t p = p0; p < p1; ++p) {
      const std::int64_t c = p % channels_;
      const float* plane = cached_input_q_.data() + p * H * W;
      const float* w = wq + c * kernel_ * kernel_;
      const float bv = use_bias_ ? bias_.value[c] : 0.0f;
      float* dst = out.data() + p * oh * ow;
      for (std::int64_t y = 0; y < oh; ++y) {
        for (std::int64_t xo = 0; xo < ow; ++xo) {
          float acc = bv;
          for (std::int64_t ky = 0; ky < kernel_; ++ky) {
            const std::int64_t iy = y * stride_ + ky - pad_;
            if (iy < 0 || iy >= H) continue;
            for (std::int64_t kx = 0; kx < kernel_; ++kx) {
              const std::int64_t ix = xo * stride_ + kx - pad_;
              if (ix < 0 || ix >= W) continue;
              acc += w[ky * kernel_ + kx] * plane[iy * W + ix];
            }
          }
          dst[y * ow + xo] = acc;
        }
      }
    }
  });
  mask_pruned_channels(out);
  return out;
}

Tensor DepthwiseConv2d::backward(const Tensor& grad_out) {
  const std::int64_t B = cached_input_q_.shape().dim(0);
  const std::int64_t H = cached_input_q_.shape().dim(2);
  const std::int64_t W = cached_input_q_.shape().dim(3);
  const std::int64_t oh = out_h(H), ow = out_h(W);
  if (grad_out.shape() != Shape{B, channels_, oh, ow}) {
    throw std::invalid_argument(name_ + ": backward shape mismatch " +
                                grad_out.shape().to_string());
  }

  // Pruned channels neither fire nor learn.
  Tensor grad = grad_out;
  mask_pruned_channels(grad);

  Tensor grad_x(cached_input_q_.shape());  // zero-initialised; accumulated into
  const float* wq = cached_weight_q_.data();
  const std::int64_t kk = kernel_ * kernel_;
  // Parallel over channels: channel c's weight and bias gradient are summed
  // by one task, over the batch in image order, so no two tasks share an
  // accumulator and the result is the same at any thread count. STE: the
  // quantized-weight gradient applies to the float master weight.
  parallel_for(0, channels_, [&](std::int64_t c0, std::int64_t c1) {
    std::vector<float> wg(static_cast<std::size_t>(kk));
    for (std::int64_t c = c0; c < c1; ++c) {
      std::fill(wg.begin(), wg.end(), 0.0f);
      float bg = 0.0f;
      const float* w = wq + c * kk;
      for (std::int64_t b = 0; b < B; ++b) {
        const std::int64_t p = b * channels_ + c;
        const float* plane = cached_input_q_.data() + p * H * W;
        const float* gb = grad.data() + p * oh * ow;
        float* gx = grad_x.data() + p * H * W;
        for (std::int64_t y = 0; y < oh; ++y) {
          for (std::int64_t xo = 0; xo < ow; ++xo) {
            const float g = gb[y * ow + xo];
            bg += g;
            for (std::int64_t ky = 0; ky < kernel_; ++ky) {
              const std::int64_t iy = y * stride_ + ky - pad_;
              if (iy < 0 || iy >= H) continue;
              for (std::int64_t kx = 0; kx < kernel_; ++kx) {
                const std::int64_t ix = xo * stride_ + kx - pad_;
                if (ix < 0 || ix >= W) continue;
                wg[static_cast<std::size_t>(ky * kernel_ + kx)] +=
                    g * plane[iy * W + ix];
                gx[iy * W + ix] += g * w[ky * kernel_ + kx];
              }
            }
          }
        }
      }
      for (std::int64_t t = 0; t < kk; ++t) {
        weight_.grad[c * kk + t] += wg[static_cast<std::size_t>(t)];
      }
      if (use_bias_) bias_.grad[c] += bg;
    }
  });
  return grad_x;
}

void DepthwiseConv2d::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&weight_);
  if (use_bias_) out.push_back(&bias_);
}

void DepthwiseConv2d::set_bits(int bits) {
  weight_quant_.set_bits(bits);
  input_quant_.set_bits(bits);
}

void DepthwiseConv2d::set_quantization_enabled(bool enabled) {
  weight_quant_.set_enabled(enabled);
  input_quant_.set_enabled(enabled);
}

void DepthwiseConv2d::set_active_out_channels(std::int64_t n) {
  if (n < 1 || n > channels_) {
    throw std::invalid_argument(name_ + ": active_out_channels " +
                                std::to_string(n) + " out of [1, " +
                                std::to_string(channels_) + "]");
  }
  active_out_channels_ = n;
}

}  // namespace adq::nn
