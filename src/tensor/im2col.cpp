#include "tensor/im2col.h"

#include <algorithm>
#include <cstring>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace adq {
namespace {

// Chunked copy for the lowering hot loop: rows are short (the deep
// layers' 2- to 32-wide maps), so an inline SSE/scalar loop beats a
// memcpy call below ~64 elements.
template <typename T>
inline void copy_row(T* dst, const T* src, std::int64_t len) {
  if (len >= 64) {
    std::memcpy(dst, src, static_cast<std::size_t>(len) * sizeof(T));
    return;
  }
  std::int64_t x = 0;
#if defined(__SSE2__)
  if constexpr (sizeof(T) == 1) {
    for (; x + 16 <= len; x += 16) {
      _mm_storeu_si128(
          reinterpret_cast<__m128i*>(dst + x),
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + x)));
    }
  }
#endif
  for (; x < len; ++x) dst[x] = src[x];
}

// Specialised lowering for the 3x3 / stride-1 / pad-1 conv every net here
// uses: for each (channel, kh) the three kw patch rows are the same input
// row shifted by -1/0/+1, so one pass over the input rows writes all
// three — a third of the loop iterations and one bounds check per row,
// which matters because im2col dominates the non-GEMM inference cost.
template <typename T>
void im2col_k3s1p1(const T* im, const ConvGeometry& g, T* col,
                   std::int64_t ld, T pad_value) {
  const std::int64_t h = g.in_h, w = g.in_w;
  for (std::int64_t c = 0; c < g.channels; ++c) {
    const T* im_c = im + c * h * w;
    for (std::int64_t kh = 0; kh < 3; ++kh) {
      T* d0 = col + (c * 9 + kh * 3) * ld;      // kw = 0: shift -1
      T* d1 = d0 + ld;                          // kw = 1: aligned
      T* d2 = d1 + ld;                          // kw = 2: shift +1
      for (std::int64_t y = 0; y < h; ++y) {
        const std::int64_t iy = y + kh - 1;
        T* r0 = d0 + y * w;
        T* r1 = d1 + y * w;
        T* r2 = d2 + y * w;
        if (iy < 0 || iy >= h) {
          for (std::int64_t x = 0; x < w; ++x) r0[x] = pad_value;
          for (std::int64_t x = 0; x < w; ++x) r1[x] = pad_value;
          for (std::int64_t x = 0; x < w; ++x) r2[x] = pad_value;
          continue;
        }
        const T* src = im_c + iy * w;
        r0[0] = pad_value;
        copy_row(r0 + 1, src, w - 1);
        copy_row(r1, src, w);
        copy_row(r2, src + 1, w - 1);
        r2[w - 1] = pad_value;
      }
    }
  }
}

// One lowering loop for both element types; only the pad value differs
// (float path pads exact 0.0, integer path the nearest-grid code). `ld` is
// the col-matrix row stride — out_h*out_w for a standalone image, the full
// slab width when the image is one column block of a batched lowering.
template <typename T>
void im2col_impl(const T* im, const ConvGeometry& g, T* col, std::int64_t ld,
                 T pad_value) {
  if (g.kernel_h == 3 && g.kernel_w == 3 && g.stride == 1 && g.pad == 1) {
    im2col_k3s1p1(im, g, col, ld, pad_value);
    return;
  }
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < g.channels; ++c) {
    const T* im_c = im + c * g.in_h * g.in_w;
    for (std::int64_t kh = 0; kh < g.kernel_h; ++kh) {
      for (std::int64_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        T* out = col + row * ld;
        for (std::int64_t y = 0; y < oh; ++y) {
          const std::int64_t iy = y * g.stride + kh - g.pad;
          if (iy < 0 || iy >= g.in_h) {
            for (std::int64_t x = 0; x < ow; ++x) out[y * ow + x] = pad_value;
            continue;
          }
          const T* im_row = im_c + iy * g.in_w;
          if (g.stride == 1) {
            // Unit stride (every conv in these nets): the valid input span
            // is contiguous, so the row is pad / bulk copy / pad instead of
            // a bounds check per element — the lowering is a memcpy at
            // heart, and this keeps it one on the serving hot path.
            const std::int64_t x0 =
                std::min(std::max<std::int64_t>(0, g.pad - kw), ow);
            const std::int64_t x1 =
                std::min(ow, g.in_w + g.pad - kw);
            T* out_row = out + y * ow;
            for (std::int64_t x = 0; x < x0; ++x) out_row[x] = pad_value;
            if (x1 > x0) {
              copy_row(out_row + x0, im_row + (x0 + kw - g.pad), x1 - x0);
            }
            for (std::int64_t x = std::max(x1, x0); x < ow; ++x) {
              out_row[x] = pad_value;
            }
            continue;
          }
          for (std::int64_t x = 0; x < ow; ++x) {
            const std::int64_t ix = x * g.stride + kw - g.pad;
            out[y * ow + x] =
                (ix < 0 || ix >= g.in_w) ? pad_value : im_row[ix];
          }
        }
      }
    }
  }
}

}  // namespace

void im2col(const float* im, const ConvGeometry& g, float* col) {
  im2col_impl(im, g, col, g.out_h() * g.out_w(), 0.0f);
}

void im2col(const float* im, const ConvGeometry& g, float* col,
            std::int64_t col_stride) {
  im2col_impl(im, g, col, col_stride, 0.0f);
}

void im2col_u8(const std::uint8_t* im, const ConvGeometry& g,
               std::uint8_t* col, std::uint8_t pad_code) {
  im2col_impl(im, g, col, g.out_h() * g.out_w(), pad_code);
}

void im2col_u8(const std::uint8_t* im, const ConvGeometry& g,
               std::uint8_t* col, std::int64_t col_stride,
               std::uint8_t pad_code) {
  im2col_impl(im, g, col, col_stride, pad_code);
}

std::uint8_t* Im2colWorkspace::ensure_u8(std::int64_t count) {
  if (static_cast<std::int64_t>(u8.size()) < count) {
    u8.resize(static_cast<std::size_t>(count));
  }
  return u8.data();
}

float* Im2colWorkspace::ensure_f32(std::int64_t count) {
  if (static_cast<std::int64_t>(f32.size()) < count) {
    f32.resize(static_cast<std::size_t>(count));
  }
  return f32.data();
}

void col2im(const float* col, const ConvGeometry& g, float* im) {
  col2im(col, g, im, g.out_h() * g.out_w());
}

void col2im(const float* col, const ConvGeometry& g, float* im,
            std::int64_t col_stride) {
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < g.channels; ++c) {
    float* im_c = im + c * g.in_h * g.in_w;
    for (std::int64_t kh = 0; kh < g.kernel_h; ++kh) {
      for (std::int64_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        const float* in = col + row * col_stride;
        for (std::int64_t y = 0; y < oh; ++y) {
          const std::int64_t iy = y * g.stride + kh - g.pad;
          if (iy < 0 || iy >= g.in_h) continue;
          float* im_row = im_c + iy * g.in_w;
          for (std::int64_t x = 0; x < ow; ++x) {
            const std::int64_t ix = x * g.stride + kw - g.pad;
            if (ix >= 0 && ix < g.in_w) im_row[ix] += in[y * ow + x];
          }
        }
      }
    }
  }
}

}  // namespace adq
