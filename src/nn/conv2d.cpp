#include "nn/conv2d.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/parallel.h"

namespace adq::nn {

namespace {

// Images per chunk of the batched lowering: a chunk lowers into one
// [P, nb * ohw] float slab of at most kMaxSlabBytes (at least one image)
// and runs as one GEMM, so the small late maps fill whole register tiles
// instead of 4-column slivers. The chunk size comes from the layer shape
// alone — never the thread count — so the GEMM shapes, and with them every
// float sum of a training step, are the same at any thread budget.
std::int64_t chunk_images(std::int64_t P, std::int64_t ohw) {
  return std::max<std::int64_t>(
      1, kMaxSlabBytes / (static_cast<std::int64_t>(sizeof(float)) * P * ohw));
}

// Lowers images [b0, b0 + bc) of the NCHW batch x into the slab col (row
// stride ld), image i as column block i.
void lower_chunk(const float* x, const ConvGeometry& g, std::int64_t b0,
                 std::int64_t bc, float* col, std::int64_t ld) {
  const std::int64_t chw = g.channels * g.in_h * g.in_w;
  const std::int64_t ohw = g.out_h() * g.out_w();
  for (std::int64_t i = 0; i < bc; ++i) {
    im2col(x + (b0 + i) * chw, g, col + i * ohw, ld);
  }
}

// Copies images [b0, b0 + bc) of the NCHW [B, O, ohw] tensor y into the
// [O, bc * ohw] matrix m: the chunk's GEMM layout.
void gather_chunk(const float* y, std::int64_t O, std::int64_t ohw,
                  std::int64_t b0, std::int64_t bc, float* m) {
  const std::int64_t cols = bc * ohw;
  for (std::int64_t o = 0; o < O; ++o) {
    for (std::int64_t i = 0; i < bc; ++i) {
      const float* src = y + ((b0 + i) * O + o) * ohw;
      std::copy(src, src + ohw, m + o * cols + i * ohw);
    }
  }
}

// y[b] = w [O, P] * im2col(x[b]) (+ bias[o]) for the whole NCHW batch:
// one GEMM per chunk of images, its rows scattered back to [B, O, oh, ow]
// with the bias add fused in. Every output element sums its P products in
// the same order as a per-image GEMM would. Chunks run in parallel; a
// layer with a single chunk parallelises inside its GEMM instead.
void conv_batched(const float* x, std::int64_t B, const ConvGeometry& g,
                  const float* w, std::int64_t O, const float* bias,
                  float* y) {
  const std::int64_t ohw = g.out_h() * g.out_w();
  const std::int64_t P = g.patch_size();
  const std::int64_t nb = std::min(B, chunk_images(P, ohw));
  parallel_for(0, (B + nb - 1) / nb, [&](std::int64_t c0, std::int64_t c1) {
    std::vector<float> col(static_cast<std::size_t>(P * nb * ohw));
    std::vector<float> res(static_cast<std::size_t>(O * nb * ohw));
    for (std::int64_t b0 = c0 * nb; b0 < std::min(B, c1 * nb); b0 += nb) {
      const std::int64_t bc = std::min(nb, B - b0);
      const std::int64_t cols = bc * ohw;
      lower_chunk(x, g, b0, bc, col.data(), cols);
      sgemm(false, false, O, cols, P, 1.0f, w, P, col.data(), cols, 0.0f,
            res.data(), cols);
      for (std::int64_t o = 0; o < O; ++o) {
        for (std::int64_t i = 0; i < bc; ++i) {
          const float* src = res.data() + o * cols + i * ohw;
          float* dst = y + ((b0 + i) * O + o) * ohw;
          if (bias == nullptr) {
            std::copy(src, src + ohw, dst);
            continue;
          }
          const float bv = bias[o];
          for (std::int64_t s = 0; s < ohw; ++s) dst[s] = src[s] + bv;
        }
      }
    }
  });
}

}  // namespace

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels,
               std::int64_t kernel, std::int64_t stride, std::int64_t pad,
               bool use_bias, std::string name)
    : name_(std::move(name)),
      in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      use_bias_(use_bias),
      active_out_channels_(out_channels),
      active_in_channels_(in_channels),
      weight_(name_ + ".weight",
              Shape{out_channels, in_channels * kernel * kernel}),
      bias_(name_ + ".bias", Shape{out_channels}) {}

ConvGeometry Conv2d::geometry(std::int64_t h, std::int64_t w) const {
  ConvGeometry g;
  g.channels = in_channels_;
  g.in_h = h;
  g.in_w = w;
  g.kernel_h = kernel_;
  g.kernel_w = kernel_;
  g.stride = stride_;
  g.pad = pad_;
  return g;
}

void Conv2d::mask_pruned_channels(Tensor& nchw) const {
  if (active_out_channels_ >= out_channels_) return;
  const std::int64_t B = nchw.shape().dim(0);
  const std::int64_t hw = nchw.shape().dim(2) * nchw.shape().dim(3);
  for (std::int64_t b = 0; b < B; ++b) {
    float* base = nchw.data() + (b * out_channels_ + active_out_channels_) * hw;
    std::fill(base, base + (out_channels_ - active_out_channels_) * hw, 0.0f);
  }
}

Tensor Conv2d::forward(const Tensor& x) {
  if (x.shape().rank() != 4 || x.shape().dim(1) != in_channels_) {
    throw std::invalid_argument(name_ + ": expected [B, " +
                                std::to_string(in_channels_) + ", H, W], got " +
                                x.shape().to_string());
  }
  if (bypassed_) return x;
  const std::int64_t B = x.shape().dim(0);
  cached_h_ = x.shape().dim(2);
  cached_w_ = x.shape().dim(3);
  const ConvGeometry g = geometry(cached_h_, cached_w_);

  cached_input_q_ = input_quant_.apply(x);
  cached_weight_q_ = weight_quant_.apply(weight_.value);

  Tensor out(Shape{B, out_channels_, g.out_h(), g.out_w()});
  conv_batched(cached_input_q_.data(), B, g, cached_weight_q_.data(),
               out_channels_, use_bias_ ? bias_.value.data() : nullptr,
               out.data());
  mask_pruned_channels(out);
  return out;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  if (bypassed_) return grad_out;
  const std::int64_t B = cached_input_q_.shape().dim(0);
  const ConvGeometry g = geometry(cached_h_, cached_w_);
  const std::int64_t oh = g.out_h(), ow = g.out_w(), ohw = oh * ow;
  const std::int64_t P = g.patch_size();
  const std::int64_t O = out_channels_;
  if (grad_out.shape() != Shape{B, O, oh, ow}) {
    throw std::invalid_argument(name_ + ": backward shape mismatch " +
                                grad_out.shape().to_string());
  }

  // Pruned channels neither fire nor learn: drop their upstream gradient.
  Tensor masked;
  const float* grad = grad_out.data();
  if (active_out_channels_ < O) {
    masked = grad_out;
    mask_pruned_channels(masked);
    grad = masked.data();
  }

  if (use_bias_) {
    for (std::int64_t b = 0; b < B; ++b) {
      const float* gb = grad + b * O * ohw;
      for (std::int64_t o = 0; o < O; ++o) {
        float s = 0.0f;
        const float* row = gb + o * ohw;
        for (std::int64_t i = 0; i < ohw; ++i) s += row[i];
        bias_.grad[o] += s;
      }
    }
  }

  // A stride-1 conv's input gradient is itself a stride-1 convolution (see
  // below; its pad k-1-p must not be negative); a strided conv scatters
  // W_q^T * g through col2im instead.
  const bool transposed_conv = stride_ == 1 && pad_ < kernel_;
  const float* wq = cached_weight_q_.data();
  Tensor grad_x(cached_input_q_.shape());
  {
    const std::int64_t chw = in_channels_ * cached_h_ * cached_w_;
    const std::int64_t nb = std::min(B, chunk_images(P, ohw));
    const std::int64_t chunks = (B + nb - 1) / nb;
    // One weight-gradient GEMM per chunk into that chunk's own [P, O]
    // block, computed transposed so the GEMM reads the patch slab in place
    // and transposes only the O gradient rows (dW = g * col^T would
    // transpose the whole slab). Chunks run in waves of one per thread,
    // and after each wave its blocks are added into the gradient in chunk
    // order: the sum keeps one order at any thread count, without a mutex,
    // and at most one block per thread is live.
    const std::int64_t wave =
        std::min<std::int64_t>(chunks, parallel_effective_threads());
    std::vector<float> wgrad_t(static_cast<std::size_t>(wave * P * O));
    float* const wg = weight_.grad.data();
    for (std::int64_t w0 = 0; w0 < chunks; w0 += wave) {
      const std::int64_t w1 = std::min(chunks, w0 + wave);
      parallel_for(w0, w1, [&](std::int64_t c0, std::int64_t c1) {
        std::vector<float> col(static_cast<std::size_t>(P * nb * ohw));
        std::vector<float> gmat(static_cast<std::size_t>(O * nb * ohw));
        for (std::int64_t c = c0; c < c1; ++c) {
          const std::int64_t b0 = c * nb;
          const std::int64_t bc = std::min(nb, B - b0);
          const std::int64_t cols = bc * ohw;
          lower_chunk(cached_input_q_.data(), g, b0, bc, col.data(), cols);
          gather_chunk(grad, O, ohw, b0, bc, gmat.data());
          // dW^T_c = col [P, cols] * g^T [cols, O].
          sgemm(false, true, P, O, cols, 1.0f, col.data(), cols, gmat.data(),
                cols, 0.0f, wgrad_t.data() + (c - w0) * P * O, O);
          if (transposed_conv) continue;
          // dX columns = W_q^T [P, O] * g [O, cols] (into the no longer
          // needed patch slab), scattered image by image.
          sgemm(true, false, P, cols, O, 1.0f, wq, P, gmat.data(), cols,
                0.0f, col.data(), cols);
          for (std::int64_t i = 0; i < bc; ++i) {
            col2im(col.data() + i * ohw, g, grad_x.data() + (b0 + i) * chw,
                   cols);
          }
        }
      });
      // STE: the gradient w.r.t. the quantized weight is applied to the
      // float master weight directly. A task owns bands of 16 gradient
      // rows, so it reads each block one cache line (16 of its O columns)
      // at a time, and adds the wave's blocks into a band in chunk order.
      constexpr std::int64_t kBand = 16;
      parallel_for(0, (O + kBand - 1) / kBand, [&](std::int64_t t0,
                                                   std::int64_t t1) {
        for (std::int64_t t = t0; t < t1; ++t) {
          const std::int64_t o0 = t * kBand, o1 = std::min(O, o0 + kBand);
          for (std::int64_t c = w0; c < w1; ++c) {
            const float* blk = wgrad_t.data() + (c - w0) * P * O;
            for (std::int64_t p = 0; p < P; ++p) {
              for (std::int64_t o = o0; o < o1; ++o) {
                wg[o * P + p] += blk[p * O + o];
              }
            }
          }
        }
      });
    }
  }

  if (transposed_conv) {
    // dX[c, y, x] = sum over (o, kh, kw) of g[o, y + p - kh, x + p - kw] *
    // W[o, c, kh, kw]: a stride-1 convolution of g with the flipped,
    // channel-transposed kernel Wt[c, o, k-1-kh, k-1-kw] at pad k-1-p,
    // which maps the oh x ow gradient back onto the H x W input. It runs
    // through the forward's batched lowering, one accumulator per input
    // element and no scatter.
    const std::int64_t k = kernel_, kk = kernel_ * kernel_;
    std::vector<float> wt(static_cast<std::size_t>(in_channels_ * O * kk));
    for (std::int64_t o = 0; o < O; ++o) {
      for (std::int64_t c = 0; c < in_channels_; ++c) {
        const float* src = wq + (o * in_channels_ + c) * kk;
        float* dst = wt.data() + (c * O + o) * kk;
        for (std::int64_t t = 0; t < kk; ++t) dst[kk - 1 - t] = src[t];
      }
    }
    ConvGeometry gt;
    gt.channels = O;
    gt.in_h = oh;
    gt.in_w = ow;
    gt.kernel_h = k;
    gt.kernel_w = k;
    gt.stride = 1;
    gt.pad = k - 1 - pad_;
    conv_batched(grad, B, gt, wt.data(), in_channels_, nullptr,
                 grad_x.data());
  }
  return grad_x;
}

void Conv2d::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&weight_);
  if (use_bias_) out.push_back(&bias_);
}

void Conv2d::set_bits(int bits) {
  weight_quant_.set_bits(bits);
  input_quant_.set_bits(bits);
}

void Conv2d::set_quantization_enabled(bool enabled) {
  weight_quant_.set_enabled(enabled);
  input_quant_.set_enabled(enabled);
}

void Conv2d::set_active_out_channels(std::int64_t n) {
  if (n < 1 || n > out_channels_) {
    throw std::invalid_argument(name_ + ": active_out_channels " +
                                std::to_string(n) + " out of [1, " +
                                std::to_string(out_channels_) + "]");
  }
  active_out_channels_ = n;
}

void Conv2d::set_bypassed(bool bypassed) {
  if (bypassed && (in_channels_ != out_channels_ || stride_ != 1)) {
    throw std::invalid_argument(name_ + ": only shape-preserving convs can be bypassed");
  }
  bypassed_ = bypassed;
}

void Conv2d::set_active_in_channels(std::int64_t n) {
  if (n < 1 || n > in_channels_) {
    throw std::invalid_argument(name_ + ": active_in_channels out of range");
  }
  active_in_channels_ = n;
}

}  // namespace adq::nn
