// Integer inference engine — the execution step.
//
// Interprets an InferencePlan (see plan.h): integer layers quantize their
// input activations to eqn-1 codes with the per-batch dynamic range the
// training-time FakeQuantizer would have observed, lower the WHOLE batch
// with a strided u8 im2col into one [patch, batch * positions] slab, run a
// single blocked u8 x u8 -> i32 GEMM over it, and apply the fused
// requantize + BatchNorm + bias + ReLU + channel-mask epilogue in one pass
// over the int32 accumulators. Float-path layers reproduce the training
// forward exactly (fake-quantized operands, float GEMM, same epilogue).
//
// Execution is slot-based: every plan carries a static memory plan
// (arena_bytes > 0), and every op writes its output into a preallocated
// per-thread arena at the compile-time offset the planner assigned —
// in-place where the planner proved it safe (standalone ReLU/quantize,
// the residual add) — so a steady-state forward() performs ZERO heap
// allocations and its peak activation footprint is exactly
// plan.arena_bytes * batch. An input whose per-sample shape differs from
// the planned one is rejected.
//
// Sub-byte layers (<= 4 weight bits, except depthwise) execute on packed
// weight cells end to end: construction repacks the plan's flat-packed
// codes into the row-aligned layout the backend's igemm_u8w4 / igemm_u8w2
// kernels consume (nibbles and crumbs expand in-register inside the
// micro-kernel, never into a byte-per-code buffer), so a 4-bit conv's
// resident execution view is ~1/2 the bytes of its int8 form and the GEMM
// reads a quarter of the weight traffic.
//
// Thread-safety: forward()/predict() are const and safe to call
// concurrently from any number of threads on one shared engine — the plan
// is immutable after construction, weight execution views are built once
// into an engine-owned cache (so no caller ever clones packed weights), and
// all per-call state (the activation arena, activation codes, im2col slabs,
// GEMM accumulators) lives in thread_local workspaces that grow on demand
// and are reused across calls. This is what lets the dynamic-batching
// server (src/serve) share one compiled plan across its whole worker pool
// with a bounded, known activation footprint per worker.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "infer/plan.h"
#include "tensor/tensor.h"

namespace adq::infer {

/// Construction-time execution view of one integer layer's weights. When
/// `packed` the buffer holds byte-aligned packed rows (cell-bit codes,
/// zeroed tail bits) for the sub-byte igemm kernels: convs [out+1] rows of
/// `row_bytes` whose last row is all-ones codes, linears [out] rows packing
/// the fan-in. Otherwise `buf` is the byte-per-code view of an 8-bit or
/// depthwise layer (empty when the plan's own codes serve in place).
struct ExecWeights {
  std::vector<std::uint8_t> buf;
  bool packed = false;
  int cell = 8;                 // packed cell width, >= 2
  std::int64_t row_bytes = 0;   // packed row stride
};

class IntInferenceEngine {
 public:
  /// Takes ownership of the plan and builds every integer layer's weight
  /// execution view once: row-aligned packed cells for <= 4-bit
  /// non-depthwise layers, byte-per-code buffers otherwise — the hot path
  /// never touches bitpack.
  /// Replays the op walk over the planned slots once and throws
  /// std::runtime_error on a plan without a memory plan or with an
  /// inconsistent layout — a slot outside the arena, an output overlapping
  /// an operand the op still reads, or a slot overwritten while a later op
  /// still consumes it (a corrupt or hand-edited file; see
  /// validate_memory_plan).
  explicit IntInferenceEngine(InferencePlan plan);

  const InferencePlan& plan() const { return plan_; }

  /// Runs the whole plan; returns the logits [batch, classes]. Const and
  /// safe to call concurrently (see file comment). Throws
  /// std::invalid_argument, naming both shapes, when x does not match the
  /// planned input shape (see uses_arena).
  Tensor forward(const Tensor& x) const;

  /// As forward(), but writes the logits into `out`, reusing its storage
  /// when the shape already matches — the steady-state serving loop then
  /// allocates nothing at all (asserted by test).
  void forward_into(const Tensor& x, Tensor& out) const;

  /// Top-1 class index per sample.
  std::vector<std::int64_t> predict(const Tensor& x) const;

  /// Per-sample activation arena footprint.
  std::int64_t arena_bytes_per_sample() const { return plan_.arena_bytes; }

  /// What the same plan would occupy with every activation slot stored as
  /// float words — the baseline the packed arena footprint is compared
  /// against (equals arena_bytes_per_sample when nothing packs).
  std::int64_t arena_bytes_u8_per_sample() const {
    return plan_.arena_bytes_u8;
  }

  /// Slot-owning op count per activation storage cell width; index 0 =
  /// float slots, indices 1/2/4/8 = packed cells.
  std::array<int, 9> act_cell_histogram() const {
    return plan_.act_cell_histogram();
  }

  /// Exact peak activation bytes of a batch-`batch` forward (offsets and
  /// sizes scale linearly with the batch).
  std::int64_t peak_activation_bytes(std::int64_t batch) const {
    return plan_.peak_activation_bytes(batch);
  }

  /// True when forward(x) can execute out of the planned arena: x is a
  /// batch of the planned input shape.
  bool uses_arena(const Tensor& x) const;

  /// Resident bytes of the weight execution views the GEMMs actually read
  /// (owned caches plus plan codes served in place). <= 4-bit layers keep
  /// their packed cells, so this shrinks by up to 4x versus byte-per-code
  /// views; reported so the memory tables can charge the steady-state
  /// footprint, not just the plan file size.
  std::int64_t exec_weight_bytes() const;

 private:
  InferencePlan plan_;
  // Per-layer weight execution view, built once at construction: packed
  // rows for sub-byte layers, byte-per-code buffers (convs with an extra
  // all-ones row — the GEMM then emits the zero-point column sums as its
  // final accumulator row) otherwise. buf empty where the plan's codes are
  // used in place.
  std::vector<ExecWeights> exec_weights_;
};

/// Executes a single compiled layer on `x` (dispatching on path and layer
/// kind). Used by the engine per op and by the layer-level parity tests.
Tensor run_gemm_layer(const GemmLayerPlan& layer, const Tensor& x);

}  // namespace adq::infer
