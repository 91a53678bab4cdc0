// Elementwise and reduction primitives shared across adq.
//
// These are free functions over Tensor; layers in src/nn compose them. All
// binary ops require exactly matching shapes — adq has no implicit
// broadcasting, which keeps backprop bookkeeping local and explicit.
#pragma once

#include <cstdint>
#include <utility>

#include "tensor/tensor.h"

namespace adq {

/// out = a + b (shapes must match).
Tensor add(const Tensor& a, const Tensor& b);

/// a += b in place.
void add_inplace(Tensor& a, const Tensor& b);

/// a += alpha * b in place (axpy).
void axpy(Tensor& a, float alpha, const Tensor& b);

/// out = a - b.
Tensor sub(const Tensor& a, const Tensor& b);

/// out = a * b elementwise (Hadamard).
Tensor mul(const Tensor& a, const Tensor& b);

/// out = alpha * a.
Tensor scale(const Tensor& a, float alpha);

/// max(x, 0) elementwise.
Tensor relu(const Tensor& x);

/// Sum of all elements.
double sum(const Tensor& x);

/// Mean of all elements.
double mean(const Tensor& x);

/// Number of non-zero elements — the numerator of the Activation Density
/// metric (paper eqn 2). |x| <= eps counts as zero to absorb float fuzz.
std::int64_t count_nonzero(const Tensor& x, float eps = 0.0f);

/// Maximum absolute element (0 for empty tensors).
float max_abs(const Tensor& x);

/// Min / max over all elements; throws on empty tensors.
float min_value(const Tensor& x);
float max_value(const Tensor& x);

/// {min, max} of x[0..n), n >= 1, in one sequential pass: the first
/// smallest and the first largest element, so each result is bit-identical
/// to min_value / max_value (signed zeros and NaN included).
std::pair<float, float> min_max(const float* x, std::int64_t n);

/// Tensor form of min_max; throws on empty tensors.
std::pair<float, float> min_max(const Tensor& x);

/// Index of the maximum element along the last axis of a rank-2 tensor,
/// one result per row.
std::vector<std::int64_t> argmax_rows(const Tensor& x);

/// True when shapes match and every element differs by at most atol.
bool allclose(const Tensor& a, const Tensor& b, float atol = 1e-5f);

/// Batched copy-in: stacks equal-shaped samples into one [N, ...sample]
/// tensor. The serving batcher uses this to coalesce single-sample requests
/// into an engine batch. Throws on an empty list or mismatched shapes.
Tensor stack_samples(const std::vector<const Tensor*>& samples);

/// Batched scatter-out: copies row `index` of a batched tensor out as a
/// standalone sample of shape batch.shape().tail().
Tensor take_sample(const Tensor& batch, std::int64_t index);

}  // namespace adq
