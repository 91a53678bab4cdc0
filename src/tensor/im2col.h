// im2col / col2im lowering for convolutions.
//
// Conv2d forward lowers each input image to a [C*kh*kw, out_h*out_w] patch
// matrix so the convolution becomes one GEMM against the [out_c, C*kh*kw]
// weight matrix; col2im scatters gradients back for the backward pass of
// strided convolutions.
#pragma once

#include <cstdint>
#include <vector>

namespace adq {

/// Slab cap for batched im2col lowering (the integer engine's convs and
/// nn::Conv2d): a conv chunk never materialises more than this many
/// patch-matrix bytes at once, and always at least one image. Besides
/// bounding transient memory for huge batches, the cap keeps the slab and
/// its GEMM output inside L2 — one oversized chunk streams from L3 and costs
/// more than the panel-packing amortization it buys (measured: a 2.4 MiB
/// slab at batch 16 serves ~15% slower than four cache-resident chunks).
inline constexpr std::int64_t kMaxSlabBytes = 768 << 10;

struct ConvGeometry {
  std::int64_t channels = 0;
  std::int64_t in_h = 0, in_w = 0;
  std::int64_t kernel_h = 0, kernel_w = 0;
  std::int64_t stride = 1;
  std::int64_t pad = 0;

  std::int64_t out_h() const { return (in_h + 2 * pad - kernel_h) / stride + 1; }
  std::int64_t out_w() const { return (in_w + 2 * pad - kernel_w) / stride + 1; }
  std::int64_t patch_size() const { return channels * kernel_h * kernel_w; }
};

/// im: [channels, in_h, in_w] contiguous. col: [patch_size, out_h*out_w].
void im2col(const float* im, const ConvGeometry& g, float* col);

/// Strided variant for batched lowering: writes patch row r starting at
/// col + r * col_stride (col_stride >= out_h*out_w), so B images can land
/// as adjacent column blocks of one [patch_size, B * out_h*out_w] slab and
/// the whole batch runs as a single GEMM.
void im2col(const float* im, const ConvGeometry& g, float* col,
            std::int64_t col_stride);

/// Quantization-code variant for the integer inference engine: lowers an
/// image of u8 codes instead of floats. Padding positions are filled with
/// `pad_code` — the code whose dequantized value is closest to 0.0, since
/// the affine grid of eqn (1) does not necessarily contain an exact zero.
void im2col_u8(const std::uint8_t* im, const ConvGeometry& g,
               std::uint8_t* col, std::uint8_t pad_code);

/// Strided u8 variant (see the strided float overload above).
void im2col_u8(const std::uint8_t* im, const ConvGeometry& g,
               std::uint8_t* col, std::int64_t col_stride,
               std::uint8_t pad_code);

/// Reusable lowering buffers. The patch matrices are the largest transient
/// allocation on the inference hot path; a serving loop that re-lowers
/// every batch keeps one of these (typically thread_local) so the steady
/// state is allocation-free. Buffers grow on demand and never shrink.
struct Im2colWorkspace {
  std::vector<std::uint8_t> u8;
  std::vector<float> f32;

  /// Grows the u8 buffer to at least `count` and returns its data pointer.
  std::uint8_t* ensure_u8(std::int64_t count);

  /// Grows the float buffer to at least `count` and returns its data pointer.
  float* ensure_f32(std::int64_t count);
};

/// Transpose scatter: accumulates col back into im (im must be pre-zeroed).
void col2im(const float* col, const ConvGeometry& g, float* im);

/// Strided variant: patch row r is read from col + r * col_stride, so one
/// image's column block of a batched [patch_size, B * out_h*out_w] slab
/// scatters back on its own.
void col2im(const float* col, const ConvGeometry& g, float* im,
            std::int64_t col_stride);

}  // namespace adq
