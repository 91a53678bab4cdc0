// Legalization passes over the graph IR.
//
// Pipeline order (legalize()) and why it matters:
//
//   1. verify        — acyclicity, arity, edge validity (structural checks
//      need no types and reject malformed graphs with clean errors first)
//   2. infer_shapes  — propagate [C, H, W] / [C] value types from the input
//   3. fold_batchnorm — eval-mode BN folds into its producer conv's affine
//      epilogue; MUST run before ReLU fusion, else the conv -> bn -> relu
//      chain hides the conv from the ReLU's producer slot
//   4. fuse_relu_epilogue — a ReLU whose sole producer is a GEMM or
//      residual add becomes that node's fused epilogue
//   5. elide_quantize — identity quantizers (disabled / >= 24-bit grid)
//      vanish; a live quantizer whose only consumer is a GEMM at the same
//      bit-width is absorbed into the op (the integer engine performs
//      exactly that observation + rounding internally), leaving explicit
//      kQuantize nodes only where a value is quantized for a NON-GEMM
//      consumer (e.g. the residual skip edge, Fig 2)
//   6. eliminate_dead_nodes — anything no longer reachable from the output
//   7. infer_shapes + verify again — passes must leave a well-formed graph
//
// Every pass is idempotent: a second run returns false and leaves the graph
// unchanged (tests/test_graph.cpp asserts this).
//
// With ADQ_DUMP_GRAPH=<dir> set, legalize() writes
// <dir>/<model>_<NN>_<stage>.dot after every stage for visual inspection.
#pragma once

#include "graph/graph.h"

namespace adq::graph {

/// Propagates value types from the input node. Throws std::invalid_argument
/// on rank/channel mismatches (a conv fed the wrong channel count, a linear
/// fed unflattened maps, disagreeing add operands, ...).
void infer_shapes(Graph& g);

/// Structural checks: single live input/output, per-kind arity, edges
/// reference live nodes, acyclicity, and (when shapes are inferred) add
/// operand agreement. Throws std::invalid_argument / std::runtime_error.
void verify(const Graph& g);

/// Folds eval-mode BatchNorm into its producer conv/depthwise node and
/// removes bypassed (identity) BN nodes. Returns true when anything changed.
bool fold_batchnorm(Graph& g);

/// Fuses a standalone ReLU into the epilogue of its producer GEMM or
/// residual add (when it is the sole consumer and nothing is fused yet).
bool fuse_relu_epilogue(Graph& g);

/// Removes identity quantize nodes and absorbs input quantizers into their
/// sole GEMM consumer (same bit-width, not already quantizing).
bool elide_quantize(Graph& g);

/// Removes nodes unreachable from the output (the input node is kept).
bool eliminate_dead_nodes(Graph& g);

/// Runs the full pipeline above, dumping per-stage .dot files when
/// ADQ_DUMP_GRAPH is set.
void legalize(Graph& g);

/// One residual diamond decomposed the way the skip-stack executor runs
/// it. The skip branch may hold at most the Fig-2 quantizer and one
/// (BN-folded) downsample conv; the main chain is the straight line from
/// the fork (exclusive) to the add (exclusive), in execution order. Both
/// infer::lower_to_plan and execution_schedule() build on this one helper
/// so op emission and memory liveness can never disagree about what
/// executes when. Throws std::invalid_argument when the branches do not
/// meet at a fork the skip stack can express.
struct ResidualParts {
  int fork = -1;        // shared producer both branches read
  int quantize = -1;    // Fig-2 skip quantizer (-1 when elided)
  int downsample = -1;  // skip 1x1 conv (-1 for identity skips)
  std::vector<int> main_chain;  // execution order, may be empty
};
ResidualParts decompose_residual(const Graph& g, int add_id);

/// The order the slot-based executor materialises values, mirroring
/// infer::lower_to_plan's op emission: straight-line chains in producer
/// order; a residual diamond as fork, skip quantizer, main branch, then
/// the downsample conv just before the add. The skip quantizer runs
/// eagerly into its own slot (packed codes or float words), so the fork
/// dies as soon as the main branch has read it. Liveness for
/// activation-memory planning MUST be computed over this order — a plain
/// topological order could schedule the downsample conv early and keep
/// its output live across the whole main branch. Requires a legalized
/// graph; throws std::invalid_argument on residual topologies the
/// executor cannot express.
std::vector<int> execution_schedule(const Graph& g);

/// How plan_memory stores activation values whose every consumer is an
/// integer GEMM on one common eqn-1 grid: as that grid's quantize codes,
/// packed into sub-byte cells (kOn, the default — the AD policy in
/// ad/act_bits.h picks the cell), or not at all (kOff — every value stays
/// float; plan_memory uses it for the float-storage baseline footprint).
/// Lossless either way: the stored codes are exactly what the consuming
/// GEMM's own quantize_act would compute.
struct ActStorageOptions {
  enum class Mode { kOff, kOn };
  Mode mode = Mode::kOn;
  /// Layers above this bit-width run on the float path and never consume
  /// codes; must match the CompileOptions ceiling lowering will use.
  int max_integer_bits = 8;
  /// AD above which a producer falls back to 8-bit cells (kOn mode).
  double dense_threshold = 0.5;
};

/// Assigns per-value activation storage (ValueMem::act_bits / act_qbits)
/// under `opts`. A value packs when every effective consumer (looking
/// through kFlatten views) is an integer GEMM (quantize_input, bits within
/// the integer ceiling) and all consumers share one grid; a live skip
/// quantizer feeding only the residual add packs on its own grid
/// (act_qbits = 0 — the executor codes it directly and dequantizes at the
/// add). Everything else — forks with mixed consumers, pool/add/output
/// inputs, float-path layers — stays float. Returns the number of packed
/// values; clears all assignments when opts.mode == kOff. Requires a
/// legalized graph.
int assign_act_bits(Graph& g, const ActStorageOptions& opts);

/// Static activation-memory planner. Computes per-value lifetimes over
/// execution_schedule(), marks in-place-eligible ops (standalone
/// quantize/ReLU whose input has no later reader; the residual add, which
/// accumulates into its main operand; flatten and output, which are pure
/// views), and packs every remaining value into a per-sample arena with a
/// greedy first-fit-by-size allocator (64-byte-aligned slots, deterministic
/// placement). Runs assign_act_bits first: packed values get slots sized
/// ceil(elems * act_bits / 8) (64-aligned), always own their slot (no
/// in-place aliasing — packed bytes overlap the float words they replace),
/// and the planner records the float-storage baseline footprint in
/// Graph::arena_bytes_u8() by packing the same graph twice. Results land on
/// each node's `mem` annotation and in Graph::arena_bytes(); returns the
/// arena size in bytes. Requires inferred shapes (run legalize() first).
std::int64_t plan_memory(Graph& g, const ActStorageOptions& opts = {});

}  // namespace adq::graph
