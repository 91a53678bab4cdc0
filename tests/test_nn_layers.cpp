// Behavioural tests for NN layers: forward semantics, caching rules,
// quantization integration, channel masking, train/eval switching.
// (Gradient correctness is covered separately in test_nn_gradcheck.cpp.)
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/flatten.h"
#include "nn/init.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/pool.h"
#include "nn/relu.h"
#include "nn/residual.h"
#include "nn/sequential.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/ops.h"
#include "tensor/rng.h"

namespace adq::nn {
namespace {

TEST(Conv2d, IdentityKernelPassesThrough) {
  Conv2d conv(1, 1, 1, 1, 0, /*use_bias=*/false);
  conv.set_quantization_enabled(false);  // exactness test: no 16-bit snap
  conv.weight().value[0] = 1.0f;
  Tensor x(Shape{1, 1, 3, 3});
  std::iota(x.data(), x.data() + x.numel(), 0.0f);
  const Tensor y = conv.forward(x);
  EXPECT_TRUE(allclose(x, y, 1e-6f));
}

TEST(Conv2d, KnownConvolutionValue) {
  // 2x2 all-ones kernel over a 2x2 all-twos image, no padding: sum = 8.
  Conv2d conv(1, 1, 2, 1, 0, false);
  conv.weight().value.fill(1.0f);
  Tensor x(Shape{1, 1, 2, 2}, 2.0f);
  const Tensor y = conv.forward(x);
  EXPECT_EQ(y.shape(), Shape({1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(y[0], 8.0f);
}

TEST(Conv2d, StrideAndPaddingGeometry) {
  Conv2d conv(3, 8, 3, 2, 1, false);
  Tensor x(Shape{2, 3, 8, 8});
  const Tensor y = conv.forward(x);
  EXPECT_EQ(y.shape(), Shape({2, 8, 4, 4}));
}

TEST(Conv2d, BiasAddsPerChannel) {
  Conv2d conv(1, 2, 1, 1, 0, /*use_bias=*/true);
  conv.weight().value.zero();
  conv.bias()->value[0] = 1.5f;
  conv.bias()->value[1] = -2.0f;
  Tensor x(Shape{1, 1, 2, 2}, 3.0f);
  const Tensor y = conv.forward(x);
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 1.5f);
  EXPECT_FLOAT_EQ(y.at(0, 1, 1, 1), -2.0f);
}

TEST(Conv2d, WrongInputChannelsThrows) {
  Conv2d conv(3, 4, 3, 1, 1, false);
  Tensor x(Shape{1, 2, 8, 8});
  EXPECT_THROW(conv.forward(x), std::invalid_argument);
}

TEST(Conv2d, QuantizationCoarsensOutput) {
  Rng rng(1);
  Conv2d conv(2, 4, 3, 1, 1, false);
  init_conv(conv, rng);
  Tensor x(Shape{1, 2, 6, 6});
  rng.fill_normal(x, 0.0f, 1.0f);
  conv.set_quantization_enabled(false);
  const Tensor full = conv.forward(x);
  conv.set_quantization_enabled(true);
  conv.set_bits(2);
  const Tensor quant = conv.forward(x);
  EXPECT_FALSE(allclose(full, quant, 1e-4f));  // 2-bit is visibly coarser
  conv.set_bits(16);
  const Tensor fine = conv.forward(x);
  EXPECT_TRUE(allclose(full, fine, 0.05f));  // 16-bit is close to FP
}

TEST(Conv2d, PrunedChannelsAreZeroForwardAndBackward) {
  Rng rng(2);
  Conv2d conv(2, 4, 3, 1, 1, false);
  init_conv(conv, rng);
  conv.set_active_out_channels(2);
  Tensor x(Shape{1, 2, 4, 4});
  rng.fill_normal(x, 0.0f, 1.0f);
  const Tensor y = conv.forward(x);
  for (std::int64_t c = 2; c < 4; ++c) {
    for (std::int64_t i = 0; i < 16; ++i) EXPECT_EQ(y.at(0, c, i / 4, i % 4), 0.0f);
  }
  // Backward: gradient into pruned weight rows must be zero.
  Tensor g(y.shape(), 1.0f);
  conv.backward(g);
  const std::int64_t row = conv.weight().value.shape().dim(1);
  for (std::int64_t i = 2 * row; i < 4 * row; ++i) {
    EXPECT_EQ(conv.weight().grad[i], 0.0f);
  }
  // Live rows do receive gradient.
  float live = 0.0f;
  for (std::int64_t i = 0; i < 2 * row; ++i) live += std::abs(conv.weight().grad[i]);
  EXPECT_GT(live, 0.0f);
}

TEST(Conv2d, ActiveChannelBoundsChecked) {
  Conv2d conv(2, 4, 3, 1, 1, false);
  EXPECT_THROW(conv.set_active_out_channels(0), std::invalid_argument);
  EXPECT_THROW(conv.set_active_out_channels(5), std::invalid_argument);
  EXPECT_THROW(conv.set_active_in_channels(3), std::invalid_argument);
}

// Conv2d lowers a chunk of images into one patch slab and runs one GEMM per
// chunk; stride-1 input gradients run as a convolution of the output
// gradient with the flipped kernel. Over kernel 1/3, stride 1/2, pad 0/1,
// batches 1, 3 and 33 (the sizes below put 18 to 27 images in a forward
// chunk, so the last chunk of 33 is partial), bias on/off and a pruned
// output channel:
//   - forward is memcmp-equal to a per-image im2col + sgemm reference;
//   - grad_x, the weight gradient and the bias gradient match a naive
//     direct convolution in double within a float tolerance.
TEST(Conv2d, BatchedLoweringMatchesReference) {
  constexpr std::int64_t O = 4;
  Rng rng(77);
  int case_index = 0;
  for (const std::int64_t k : {1, 3}) {
    for (const std::int64_t stride : {1, 2}) {
      constexpr std::int64_t C = 8;
      const std::int64_t H = (k == 1 ? 32 : 12) * stride, W = H;
      for (const std::int64_t pad : {0, 1}) {
        for (const std::int64_t B : {1, 3, 33}) {
          for (const bool bias : {false, true}) {
            const bool pruned = (case_index++ % 2) == 1;
            SCOPED_TRACE("k=" + std::to_string(k) + " stride=" +
                         std::to_string(stride) + " pad=" +
                         std::to_string(pad) + " B=" + std::to_string(B) +
                         " bias=" + std::to_string(bias) +
                         " pruned=" + std::to_string(pruned));
            Conv2d conv(C, O, k, stride, pad, bias);
            conv.set_quantization_enabled(false);
            rng.fill_uniform(conv.weight().value, -1.0f, 1.0f);
            if (bias) rng.fill_uniform(conv.bias()->value, -1.0f, 1.0f);
            const std::int64_t live = pruned ? O - 1 : O;
            conv.set_active_out_channels(live);
            Tensor x(Shape{B, C, H, W});
            rng.fill_uniform(x, -1.0f, 1.0f);
            const Tensor y = conv.forward(x);

            ConvGeometry g;
            g.channels = C;
            g.in_h = H;
            g.in_w = W;
            g.kernel_h = g.kernel_w = k;
            g.stride = stride;
            g.pad = pad;
            const std::int64_t oh = g.out_h(), ow = g.out_w(), ohw = oh * ow;
            const std::int64_t P = g.patch_size();
            ASSERT_EQ(y.shape(), Shape({B, O, oh, ow}));

            // Forward reference: one GEMM per image, then bias, then mask.
            Tensor want(y.shape());
            std::vector<float> col(static_cast<std::size_t>(P * ohw));
            for (std::int64_t b = 0; b < B; ++b) {
              im2col(x.data() + b * C * H * W, g, col.data());
              float* out_b = want.data() + b * O * ohw;
              sgemm(false, false, O, ohw, P, 1.0f, conv.weight().value.data(),
                    P, col.data(), ohw, 0.0f, out_b, ohw);
              for (std::int64_t o = 0; o < O; ++o) {
                for (std::int64_t s = 0; s < ohw; ++s) {
                  if (o >= live) {
                    out_b[o * ohw + s] = 0.0f;
                  } else if (bias) {
                    out_b[o * ohw + s] += conv.bias()->value[o];
                  }
                }
              }
            }
            EXPECT_EQ(std::memcmp(want.data(), y.data(),
                                  static_cast<std::size_t>(y.numel()) *
                                      sizeof(float)),
                      0);

            Tensor gy(y.shape());
            rng.fill_uniform(gy, -1.0f, 1.0f);
            const Tensor gx = conv.backward(gy);
            ASSERT_EQ(gx.shape(), x.shape());

            // Naive direct convolution in double: |got - want| must stay
            // within a float-rounding bound of the sum of |terms|.
            const std::int64_t kk = k * k;
            std::vector<double> gx_ref(static_cast<std::size_t>(x.numel()));
            std::vector<double> gx_abs(gx_ref.size());
            std::vector<double> wg_ref(static_cast<std::size_t>(O * P));
            std::vector<double> wg_abs(wg_ref.size());
            std::vector<double> bg_ref(static_cast<std::size_t>(O));
            for (std::int64_t b = 0; b < B; ++b) {
              for (std::int64_t o = 0; o < live; ++o) {
                for (std::int64_t oy = 0; oy < oh; ++oy) {
                  for (std::int64_t ox = 0; ox < ow; ++ox) {
                    const double gv = gy.at(b, o, oy, ox);
                    bg_ref[o] += gv;
                    for (std::int64_t c = 0; c < C; ++c) {
                      for (std::int64_t kh = 0; kh < k; ++kh) {
                        const std::int64_t iy = oy * stride + kh - pad;
                        if (iy < 0 || iy >= H) continue;
                        for (std::int64_t kw = 0; kw < k; ++kw) {
                          const std::int64_t ix = ox * stride + kw - pad;
                          if (ix < 0 || ix >= W) continue;
                          const std::size_t wi = static_cast<std::size_t>(
                              o * P + c * kk + kh * k + kw);
                          const std::size_t xi = static_cast<std::size_t>(
                              ((b * C + c) * H + iy) * W + ix);
                          const double wv = conv.weight().value[wi];
                          const double xv = x[xi];
                          gx_ref[xi] += gv * wv;
                          gx_abs[xi] += std::abs(gv * wv);
                          wg_ref[wi] += gv * xv;
                          wg_abs[wi] += std::abs(gv * xv);
                        }
                      }
                    }
                  }
                }
              }
            }
            constexpr double kRel = 1e-5;
            int bad = 0;
            for (std::size_t i = 0; i < gx_ref.size() && bad < 5; ++i) {
              if (std::abs(gx[i] - gx_ref[i]) > kRel * gx_abs[i] + 1e-6) {
                ADD_FAILURE() << "grad_x[" << i << "] = " << gx[i]
                              << ", want " << gx_ref[i];
                ++bad;
              }
            }
            for (std::size_t i = 0; i < wg_ref.size() && bad < 5; ++i) {
              const float got = conv.weight().grad[static_cast<std::int64_t>(i)];
              if (std::abs(got - wg_ref[i]) > kRel * wg_abs[i] + 1e-6) {
                ADD_FAILURE() << "weight grad[" << i << "] = " << got
                              << ", want " << wg_ref[i];
                ++bad;
              }
            }
            if (bias) {
              for (std::int64_t o = 0; o < O; ++o) {
                EXPECT_NEAR(conv.bias()->grad[o], bg_ref[o],
                            kRel * static_cast<double>(B * ohw) + 1e-6);
              }
            }
          }
        }
      }
    }
  }
}

TEST(Linear, MatchesManualAffine) {
  Linear fc(3, 2, /*use_bias=*/true);
  fc.set_quantization_enabled(false);  // exactness test: no 16-bit snap
  // W = [[1,0,0],[0,2,0]], b = [0.5, -1]
  fc.weight().value.zero();
  fc.weight().value.at(0, 0) = 1.0f;
  fc.weight().value.at(1, 1) = 2.0f;
  fc.bias()->value[0] = 0.5f;
  fc.bias()->value[1] = -1.0f;
  Tensor x(Shape{1, 3}, std::vector<float>{3.0f, 4.0f, 5.0f});
  const Tensor y = fc.forward(x);
  EXPECT_FLOAT_EQ(y[0], 3.5f);
  EXPECT_FLOAT_EQ(y[1], 7.0f);
}

TEST(Linear, MeterObservesLogitsOnlyInTraining) {
  Linear fc(2, 2, true);
  ad::DensityMeter meter;
  fc.attach_meter(&meter);
  Tensor x(Shape{1, 2}, 1.0f);
  fc.weight().value.fill(1.0f);
  fc.set_training(false);
  fc.forward(x);
  EXPECT_EQ(meter.observed_total(), 0);
  fc.set_training(true);
  fc.forward(x);
  EXPECT_EQ(meter.observed_total(), 2);
}

TEST(BatchNorm, NormalizesBatchStatistics) {
  BatchNorm2d bn(2);
  Rng rng(3);
  Tensor x(Shape{4, 2, 3, 3});
  rng.fill_normal(x, 5.0f, 3.0f);
  const Tensor y = bn.forward(x);
  // Per-channel mean ~0, var ~1 after normalisation with gamma=1, beta=0.
  for (std::int64_t c = 0; c < 2; ++c) {
    double s = 0.0, s2 = 0.0;
    for (std::int64_t b = 0; b < 4; ++b) {
      for (std::int64_t i = 0; i < 9; ++i) {
        const float v = y.at(b, c, i / 3, i % 3);
        s += v;
        s2 += static_cast<double>(v) * v;
      }
    }
    const double n = 36.0;
    EXPECT_NEAR(s / n, 0.0, 1e-4);
    EXPECT_NEAR(s2 / n, 1.0, 1e-2);
  }
}

TEST(BatchNorm, EvalUsesRunningStats) {
  BatchNorm2d bn(1, /*momentum=*/1.0f);  // running stats = last batch
  Tensor x(Shape{2, 1, 2, 2}, 4.0f);
  // Constant input: batch var 0.
  bn.forward(x);
  bn.set_training(false);
  Tensor probe(Shape{1, 1, 2, 2}, 4.0f);
  const Tensor y = bn.forward(probe);
  for (std::int64_t i = 0; i < y.numel(); ++i) EXPECT_NEAR(y[i], 0.0f, 1e-2f);
}

TEST(BatchNorm, GammaBetaAffectOutput) {
  BatchNorm2d bn(1);
  bn.gamma().value[0] = 2.0f;
  bn.beta().value[0] = 1.0f;
  Rng rng(4);
  Tensor x(Shape{4, 1, 2, 2});
  rng.fill_normal(x, 0.0f, 1.0f);
  const Tensor y = bn.forward(x);
  double s = 0.0;
  for (std::int64_t i = 0; i < y.numel(); ++i) s += y[i];
  EXPECT_NEAR(s / static_cast<double>(y.numel()), 1.0, 1e-4);  // beta shifts mean
}

TEST(BatchNorm, MasksPrunedChannels) {
  BatchNorm2d bn(3);
  bn.beta().value.fill(7.0f);  // beta would resurrect dead channels
  bn.set_active_channels(1);
  Tensor x(Shape{1, 3, 2, 2}, 1.0f);
  const Tensor y = bn.forward(x);
  for (std::int64_t c = 1; c < 3; ++c) {
    for (std::int64_t i = 0; i < 4; ++i) EXPECT_EQ(y.at(0, c, i / 2, i % 2), 0.0f);
  }
}

TEST(ReLU, ForwardClampsAndMetersDensity) {
  ReLU relu;
  ad::DensityMeter meter;
  relu.attach_meter(&meter);
  Tensor x(Shape{1, 1, 2, 2}, std::vector<float>{-1.0f, 2.0f, -3.0f, 4.0f});
  const Tensor y = relu.forward(x);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[1], 2.0f);
  EXPECT_DOUBLE_EQ(meter.current_density(), 0.5);
}

TEST(ReLU, NoMeteringInEvalMode) {
  ReLU relu;
  ad::DensityMeter meter;
  relu.attach_meter(&meter);
  relu.set_training(false);
  Tensor x(Shape{1, 1, 1, 2}, 1.0f);
  relu.forward(x);
  EXPECT_EQ(meter.observed_total(), 0);
}

TEST(ReLU, MeteredChannelsRestrictCounting) {
  ReLU relu;
  ad::DensityMeter meter;
  relu.attach_meter(&meter);
  relu.set_metered_channels(1);
  // Channel 0 all positive, channel 1 all negative (would halve density).
  Tensor x(Shape{1, 2, 1, 2}, std::vector<float>{1.0f, 2.0f, -1.0f, -2.0f});
  relu.forward(x);
  EXPECT_DOUBLE_EQ(meter.current_density(), 1.0);
  EXPECT_EQ(meter.observed_total(), 2);
}

TEST(ReLU, BackwardGatesBySign) {
  ReLU relu;
  Tensor x(Shape{1, 1, 1, 3}, std::vector<float>{-1.0f, 0.0f, 2.0f});
  relu.forward(x);
  Tensor g(x.shape(), 1.0f);
  const Tensor gx = relu.backward(g);
  EXPECT_EQ(gx[0], 0.0f);
  EXPECT_EQ(gx[1], 0.0f);  // ReLU'(0) = 0 by our convention
  EXPECT_EQ(gx[2], 1.0f);
}

TEST(MaxPool, SelectsWindowMaximum) {
  MaxPool2d pool(2, 2);
  Tensor x(Shape{1, 1, 2, 2}, std::vector<float>{1.0f, 5.0f, 3.0f, 2.0f});
  const Tensor y = pool.forward(x);
  EXPECT_EQ(y.shape(), Shape({1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(y[0], 5.0f);
}

TEST(MaxPool, BackwardRoutesToArgmax) {
  MaxPool2d pool(2, 2);
  Tensor x(Shape{1, 1, 2, 2}, std::vector<float>{1.0f, 5.0f, 3.0f, 2.0f});
  pool.forward(x);
  Tensor g(Shape{1, 1, 1, 1}, 7.0f);
  const Tensor gx = pool.backward(g);
  EXPECT_EQ(gx[0], 0.0f);
  EXPECT_EQ(gx[1], 7.0f);
  EXPECT_EQ(gx[2], 0.0f);
}

TEST(MaxPool, TooSmallInputThrows) {
  MaxPool2d pool(2, 2);
  Tensor x(Shape{1, 1, 1, 1});
  EXPECT_THROW(pool.forward(x), std::invalid_argument);
}

TEST(GlobalAvgPool, AveragesSpatialExtent) {
  GlobalAvgPool gap;
  Tensor x(Shape{1, 2, 2, 2});
  for (std::int64_t i = 0; i < 4; ++i) x[i] = 2.0f;      // channel 0
  for (std::int64_t i = 4; i < 8; ++i) x[i] = 6.0f;      // channel 1
  const Tensor y = gap.forward(x);
  EXPECT_EQ(y.shape(), Shape({1, 2}));
  EXPECT_FLOAT_EQ(y[0], 2.0f);
  EXPECT_FLOAT_EQ(y[1], 6.0f);
}

TEST(Flatten, RoundTripsShape) {
  Flatten flat;
  Tensor x(Shape{2, 3, 4, 4});
  const Tensor y = flat.forward(x);
  EXPECT_EQ(y.shape(), Shape({2, 48}));
  const Tensor gx = flat.backward(Tensor(Shape{2, 48}, 1.0f));
  EXPECT_EQ(gx.shape(), x.shape());
}

TEST(Sequential, ChainsAndPropagatesTrainingFlag) {
  Sequential seq;
  auto* relu = seq.emplace<ReLU>();
  auto* flat = seq.emplace<Flatten>();
  (void)flat;
  seq.set_training(false);
  EXPECT_FALSE(relu->training());
  Tensor x(Shape{1, 1, 2, 2}, -1.0f);
  const Tensor y = seq.forward(x);
  EXPECT_EQ(y.shape(), Shape({1, 4}));
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_EQ(y[i], 0.0f);
}

TEST(Sequential, CollectsAllParameters) {
  Sequential seq;
  seq.emplace<Conv2d>(1, 2, 3, 1, 1, true);
  seq.emplace<BatchNorm2d>(2);
  std::vector<Parameter*> params;
  seq.collect_parameters(params);
  EXPECT_EQ(params.size(), 4u);  // conv W+b, bn gamma+beta
}

TEST(Residual, IdentitySkipAddsInput) {
  Rng rng(5);
  ResidualBlock block(4, 4, 1);
  // Zero both convs: output = relu(0 + x) = relu(x).
  block.conv1().weight().value.zero();
  block.conv2().weight().value.zero();
  Tensor x(Shape{1, 4, 4, 4});
  rng.fill_normal(x, 0.0f, 1.0f);
  const Tensor y = block.forward(x);
  const Tensor expect = relu(x);
  // Skip path is fake-quantized at 16 bits -> near-exact.
  EXPECT_TRUE(allclose(y, expect, 1e-3f));
}

TEST(Residual, DownsampleChangesGeometry) {
  Rng rng(6);
  ResidualBlock block(4, 8, 2);
  EXPECT_TRUE(block.has_downsample());
  init_residual_block(block, rng);
  Tensor x(Shape{2, 4, 8, 8});
  const Tensor y = block.forward(x);
  EXPECT_EQ(y.shape(), Shape({2, 8, 4, 4}));
}

TEST(Residual, SkipQuantizerTracksConv2Bits) {
  ResidualBlock block(4, 8, 2);
  block.set_bits_conv2(3);
  EXPECT_EQ(block.skip_quantizer().bits(), 3);
  EXPECT_EQ(block.conv2().bits(), 3);
  EXPECT_EQ(block.downsample_conv()->bits(), 3);
  // conv1 unaffected.
  block.set_bits_conv1(7);
  EXPECT_EQ(block.conv1().bits(), 7);
  EXPECT_EQ(block.skip_quantizer().bits(), 3);
}

TEST(Residual, PrunedOutputStaysDeadDespiteIdentitySkip) {
  Rng rng(7);
  ResidualBlock block(4, 4, 1);
  init_residual_block(block, rng);
  block.set_active_out_channels(2);
  Tensor x(Shape{1, 4, 4, 4}, 1.0f);  // nonzero skip into pruned channels
  const Tensor y = block.forward(x);
  for (std::int64_t c = 2; c < 4; ++c) {
    for (std::int64_t i = 0; i < 16; ++i) {
      EXPECT_EQ(y.at(0, c, i / 4, i % 4), 0.0f);
    }
  }
}

TEST(Loss, UniformLogitsGiveLogC) {
  SoftmaxCrossEntropy loss;
  Tensor logits(Shape{2, 4});
  const double l = loss.forward(logits, {0, 3});
  EXPECT_NEAR(l, std::log(4.0), 1e-6);
}

TEST(Loss, PerfectPredictionNearZero) {
  SoftmaxCrossEntropy loss;
  Tensor logits(Shape{1, 3});
  logits[0] = 100.0f;
  EXPECT_NEAR(loss.forward(logits, {0}), 0.0, 1e-6);
}

TEST(Loss, GradientSumsToZeroPerRow) {
  SoftmaxCrossEntropy loss;
  Rng rng(8);
  Tensor logits(Shape{3, 5});
  rng.fill_normal(logits, 0.0f, 2.0f);
  loss.forward(logits, {1, 2, 4});
  const Tensor g = loss.backward();
  for (std::int64_t b = 0; b < 3; ++b) {
    double s = 0.0;
    for (std::int64_t c = 0; c < 5; ++c) s += g.at(b, c);
    EXPECT_NEAR(s, 0.0, 1e-6);
  }
}

TEST(Loss, LabelOutOfRangeThrows) {
  SoftmaxCrossEntropy loss;
  Tensor logits(Shape{1, 3});
  EXPECT_THROW(loss.forward(logits, {3}), std::invalid_argument);
}

TEST(Optimizer, SgdDescendsQuadratic) {
  // Minimise f(w) = (w - 3)^2 by hand-fed gradients.
  Parameter w("w", Shape{1});
  w.value[0] = 0.0f;
  Sgd opt({&w}, 0.1f, 0.0f);
  for (int i = 0; i < 100; ++i) {
    w.zero_grad();
    w.grad[0] = 2.0f * (w.value[0] - 3.0f);
    opt.step();
  }
  EXPECT_NEAR(w.value[0], 3.0f, 1e-3f);
}

TEST(Optimizer, AdamDescendsQuadratic) {
  Parameter w("w", Shape{1});
  w.value[0] = 0.0f;
  Adam opt({&w}, 0.1f);
  for (int i = 0; i < 300; ++i) {
    w.zero_grad();
    w.grad[0] = 2.0f * (w.value[0] - 3.0f);
    opt.step();
  }
  EXPECT_NEAR(w.value[0], 3.0f, 1e-2f);
}

TEST(Optimizer, ZeroGradClearsAll) {
  Parameter a("a", Shape{2}), b("b", Shape{2});
  a.grad.fill(1.0f);
  b.grad.fill(2.0f);
  Sgd opt({&a, &b}, 0.1f);
  opt.zero_grad();
  EXPECT_EQ(a.grad[0], 0.0f);
  EXPECT_EQ(b.grad[1], 0.0f);
}

TEST(Optimizer, WeightDecayShrinksWeights) {
  Parameter w("w", Shape{1});
  w.value[0] = 1.0f;
  Sgd opt({&w}, 0.1f, 0.0f, /*weight_decay=*/0.5f);
  w.zero_grad();  // pure decay
  opt.step();
  EXPECT_LT(w.value[0], 1.0f);
}

TEST(Init, KaimingVarianceMatchesFanIn) {
  Rng rng(9);
  Tensor w(Shape{256, 144});
  kaiming_normal(w, 144, rng);
  double s2 = 0.0;
  for (std::int64_t i = 0; i < w.numel(); ++i) s2 += static_cast<double>(w[i]) * w[i];
  const double var = s2 / static_cast<double>(w.numel());
  EXPECT_NEAR(var, 2.0 / 144.0, 2e-3);
}

}  // namespace
}  // namespace adq::nn
