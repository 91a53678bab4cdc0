// Typed dataflow IR for the model -> plan compile pipeline.
//
// A Graph is a DAG of Nodes with explicit input edges, one source (kInput)
// and one sink (kOutput). Every node names the value it produces and, after
// shape inference, carries that value's batch-agnostic type ([C, H, W]
// feature maps or [C] feature vectors). GEMM-shaped nodes (conv, depthwise
// conv, linear) bind non-owning pointers to the trained nn layers whose
// weights the lowering reads; pass-computed attributes (folded BatchNorm,
// fused ReLU epilogue, absorbed input quantizer) accumulate on the node.
//
// The IR exists so that lowering decisions (what fuses into what, which
// quantizers are real ops and which are absorbed by the integer GEMM) are
// explicit graph rewrites (graph/passes.h) instead of a type-switch walk
// over nn::Sequential — new topologies only need a builder that emits
// nodes, not a new compiler.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace adq::nn {
class BatchNorm2d;
class Conv2d;
class DepthwiseConv2d;
class Linear;
}  // namespace adq::nn

namespace adq::graph {

enum class NodeKind {
  kInput,          // the graph's single source; type set by the builder
  kConv,           // nn::Conv2d (+ optionally folded BN, fused ReLU)
  kDepthwiseConv,  // nn::DepthwiseConv2d (per-channel spatial conv)
  kLinear,         // nn::Linear
  kBatchNorm,      // standalone BN; folded into its producer by bn-fold
  kReLU,           // standalone ReLU; fused into a GEMM/add epilogue
  kMaxPool,
  kGlobalAvgPool,
  kFlatten,
  kQuantize,  // eqn-1 fake-quantize at `bits`; elided/absorbed by passes
  kAdd,       // residual join: inputs[0] = main branch, inputs[1] = skip
  kOutput,    // the graph's single sink
};

const char* kind_name(NodeKind kind);

/// Batch-agnostic value type: rank 3 for [C, H, W] feature maps, rank 1 for
/// [C] feature vectors, rank 0 before shape inference has run.
struct ValueType {
  int rank = 0;
  std::int64_t channels = 0, height = 0, width = 0;

  static ValueType chw(std::int64_t c, std::int64_t h, std::int64_t w) {
    return ValueType{3, c, h, w};
  }
  static ValueType features(std::int64_t c) { return ValueType{1, c, 0, 0}; }

  bool operator==(const ValueType& o) const {
    return rank == o.rank && channels == o.channels && height == o.height &&
           width == o.width;
  }
  bool operator!=(const ValueType& o) const { return !(*this == o); }

  std::string to_string() const;
};

/// Activation-memory annotations for one value, filled by plan_memory().
/// Lifetimes are positions in the execution schedule (see
/// execution_schedule() in graph/passes.h), NOT topological order: the
/// executor materialises a residual downsample conv just before the add,
/// and liveness must describe what the executor actually does.
struct ValueMem {
  std::int64_t bytes = 0;    // per-sample storage bytes of this value
                             // (float words, or packed codes when act_bits)
  std::int64_t offset = -1;  // arena byte offset of its storage slot
                             // (-1 = unplanned, or external caller memory)
  int def = -1;              // schedule step that produces the value
  int last_use = -1;         // last schedule step that reads it
  bool inplace = false;      // writes into (aliases) its input's slot

  // Activation-storage compression, filled by assign_act_bits(): the value
  // is stored in its arena slot as packed `act_bits`-bit quantize codes
  // (0 = plain float words). `act_qbits` is the eqn-1 grid the codes were
  // quantized on — the common bit-width of every consuming integer GEMM.
  // act_qbits == 0 with act_bits > 0 marks a skip quantizer that codes on
  // its OWN grid (its node `bits`); the executor dequantizes at the add.
  int act_bits = 0;
  int act_qbits = 0;
};

struct Node {
  NodeKind kind = NodeKind::kInput;
  std::string name;         // name of the value this node produces
  std::vector<int> inputs;  // producer node ids (explicit dataflow edges)
  ValueType type;           // output value type, filled by infer_shapes()
  ValueMem mem;             // arena slot + lifetime, filled by plan_memory()

  // Non-owning layer bindings. Which pointer is set depends on `kind`;
  // weights and live bit-widths are read from the layer at lowering time.
  nn::Conv2d* conv = nullptr;
  nn::DepthwiseConv2d* dwconv = nullptr;
  nn::Linear* linear = nullptr;
  nn::BatchNorm2d* bn = nullptr;  // kBatchNorm, or folded into a GEMM node

  // Pass-computed GEMM attributes.
  bool fused_relu = false;      // ReLU fused into this node's epilogue
  bool quantize_input = false;  // input fake-quantizer absorbed into the op

  // kQuantize: eqn-1 grid width; also mirrors the GEMM's bit-width on
  // conv/depthwise/linear nodes for display and elision matching.
  int bits = 0;
  bool quant_enabled = true;  // kQuantize: false = identity (elided)

  std::int64_t pool_kernel = 2, pool_stride = 2;  // kMaxPool
  std::int64_t mask_channels = -1;                // kAdd eqn-5 output mask

  // Latest committed Activation Density (eqn 2) of the unit producing this
  // value, annotated by build_from_model from the unit meters; -1 = no
  // density observed (untrained model, non-GEMM node). assign_act_bits
  // reads it to pick the storage cell width (dense layers fall back to
  // 8-bit cells).
  double ad_density = -1.0;

  bool dead = false;  // tombstone; set via Graph::remove()
};

class Graph {
 public:
  explicit Graph(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Appends a node and returns its id. Ids are stable for the graph's
  /// lifetime (removal tombstones instead of compacting).
  int add(Node node);

  Node& at(int id) { return nodes_.at(static_cast<std::size_t>(id)); }
  const Node& at(int id) const {
    return nodes_.at(static_cast<std::size_t>(id));
  }

  /// Total slots, including tombstones (valid id range is [0, size())).
  int size() const { return static_cast<int>(nodes_.size()); }
  int live_count() const;

  int input() const { return input_; }
  int output() const { return output_; }
  void set_input(int id) { input_ = id; }
  void set_output(int id) { output_ = id; }

  /// Live nodes consuming `id`'s value, in id order.
  std::vector<int> consumers(int id) const;

  /// Topological order over live nodes. Throws std::runtime_error when the
  /// graph contains a cycle.
  std::vector<int> topo_order() const;

  /// Marks a node dead. The caller must have rewired its consumers first.
  void remove(int id);

  /// In `node`, replaces every input edge from `old_producer` with
  /// `new_producer`.
  void replace_input(int node, int old_producer, int new_producer);

  /// Rewires every live consumer of `from` to consume `to` instead.
  void rewire_consumers(int from, int to);

  /// Per-sample activation arena footprint in bytes; 0 until plan_memory()
  /// has run.
  std::int64_t arena_bytes() const { return arena_bytes_; }
  void set_arena_bytes(std::int64_t bytes) { arena_bytes_ = bytes; }

  /// What arena_bytes() would have been with activation compression off
  /// (every value stored as float words) — the baseline the packed
  /// footprint is reported against. Equals arena_bytes() when packing is
  /// off; 0 until plan_memory() has run.
  std::int64_t arena_bytes_u8() const { return arena_bytes_u8_; }
  void set_arena_bytes_u8(std::int64_t bytes) { arena_bytes_u8_ = bytes; }

 private:
  std::string name_;
  std::vector<Node> nodes_;
  int input_ = -1, output_ = -1;
  std::int64_t arena_bytes_ = 0;
  std::int64_t arena_bytes_u8_ = 0;
};

/// Graphviz rendering of the live graph: one record per node (kind, value
/// name, inferred type, bit/fusion annotations), one edge per input.
std::string to_dot(const Graph& g);

}  // namespace adq::graph
