// 2-D convolution with integrated fake-quantization and channel masking.
//
// Forward lowers a chunk of images at a time into one im2col patch slab
// and runs one GEMM per chunk; the chunk size comes from the layer shape
// (a slab byte target), never the thread count. Chunks run in parallel;
// a layer with a single chunk parallelises inside its GEMM. Backward reuses the same lowering: the
// weight gradient is one GEMM per chunk, added up in chunk order; a
// stride-1 conv's input gradient is a convolution of the output gradient
// with the flipped, channel-transposed kernel, and a strided conv's runs
// W^T * g through col2im. Every sum therefore has an order fixed by the
// shapes alone, so training is bit-identical at any thread count and on
// every backend. Quantization-aware training follows the
// paper: both the weights and the input activations are snapped to the
// layer's k-bit grid (eqn 1) before the convolution; backward uses the
// straight-through estimator, i.e. gradients flow through the quantizers
// unchanged.
//
// Channel masking implements AD-based pruning (eqn 5) without rebuilding
// the graph: output channels >= active_out_channels() are forced to zero in
// forward and their gradients are dropped in backward, so pruned channels
// neither fire nor learn. Energy models read the active count.
#pragma once

#include <memory>

#include "nn/layer.h"
#include "quant/fake_quantizer.h"
#include "tensor/im2col.h"

namespace adq::nn {

class Conv2d : public Layer {
 public:
  Conv2d(std::int64_t in_channels, std::int64_t out_channels,
         std::int64_t kernel, std::int64_t stride, std::int64_t pad,
         bool use_bias, std::string name = "conv");

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_parameters(std::vector<Parameter*>& out) override;
  std::string name() const override { return name_; }

  std::int64_t in_channels() const { return in_channels_; }
  std::int64_t out_channels() const { return out_channels_; }
  std::int64_t kernel() const { return kernel_; }
  std::int64_t stride() const { return stride_; }
  std::int64_t pad() const { return pad_; }

  /// Weight matrix, [out_channels, in_channels * kernel * kernel].
  Parameter& weight() { return weight_; }
  const Parameter& weight() const { return weight_; }
  Parameter* bias() { return use_bias_ ? &bias_ : nullptr; }

  /// Sets the k-bit precision of both the weight and input-activation
  /// quantizers (the paper quantizes both to k_l).
  void set_bits(int bits);
  int bits() const { return weight_quant_.bits(); }

  /// Disables quantization entirely (paper: first conv layer is exempt).
  void set_quantization_enabled(bool enabled);
  bool quantization_enabled() const { return weight_quant_.enabled(); }

  /// Channel pruning mask: only the first `n` output channels are live.
  void set_active_out_channels(std::int64_t n);
  std::int64_t active_out_channels() const { return active_out_channels_; }

  /// Limits live *input* channels (set when the upstream layer is pruned, so
  /// MAC/energy accounting sees the reduced fan-in).
  void set_active_in_channels(std::int64_t n);
  std::int64_t active_in_channels() const { return active_in_channels_; }

  /// Bypass turns the layer into an identity (paper Table II iter 2a: a
  /// layer whose AD collapses is removed entirely). Only legal for
  /// shape-preserving convs (in==out channels, stride 1).
  void set_bypassed(bool bypassed);
  bool bypassed() const { return bypassed_; }

  quant::FakeQuantizer& weight_quantizer() { return weight_quant_; }
  quant::FakeQuantizer& input_quantizer() { return input_quant_; }

 private:
  ConvGeometry geometry(std::int64_t h, std::int64_t w) const;
  void mask_pruned_channels(Tensor& nchw) const;

  std::string name_;
  std::int64_t in_channels_, out_channels_, kernel_, stride_, pad_;
  bool use_bias_;
  std::int64_t active_out_channels_;
  std::int64_t active_in_channels_;
  bool bypassed_ = false;

  Parameter weight_;
  Parameter bias_;
  quant::FakeQuantizer weight_quant_;
  quant::FakeQuantizer input_quant_;

  // Backward caches (valid between one forward and the next backward).
  Tensor cached_input_q_;  // quantized input batch
  Tensor cached_weight_q_;
  std::int64_t cached_h_ = 0, cached_w_ = 0;
};

}  // namespace adq::nn
