#include "graph/passes.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "ad/act_bits.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/depthwise.h"
#include "nn/linear.h"
#include "tensor/bitpack.h"

namespace adq::graph {
namespace {

[[noreturn]] void fail(const Graph& g, const Node& n, const std::string& why) {
  throw std::invalid_argument("graph '" + g.name() + "', node '" + n.name +
                              "' (" + kind_name(n.kind) + "): " + why);
}

bool is_gemm(NodeKind k) {
  return k == NodeKind::kConv || k == NodeKind::kDepthwiseConv ||
         k == NodeKind::kLinear;
}

int gemm_bits(const Node& n) {
  switch (n.kind) {
    case NodeKind::kConv: return n.conv->bits();
    case NodeKind::kDepthwiseConv: return n.dwconv->bits();
    case NodeKind::kLinear: return n.linear->bits();
    default: return 0;
  }
}

void expect_rank(const Graph& g, const Node& n, const ValueType& in,
                 int rank) {
  if (in.rank != rank) {
    fail(g, n, "expects a rank-" + std::to_string(rank) + " input, got " +
                   in.to_string());
  }
}

}  // namespace

void infer_shapes(Graph& g) {
  for (int id : g.topo_order()) {
    Node& n = g.at(id);
    // Arity is verify()'s job, but inference must not read past a
    // malformed node's input list when called on its own.
    if (n.kind != NodeKind::kInput && n.inputs.empty()) {
      fail(g, n, "has no input edge");
    }
    if (n.kind == NodeKind::kAdd && n.inputs.size() != 2) {
      fail(g, n, "expects 2 operands, has " +
                     std::to_string(n.inputs.size()));
    }
    const ValueType* in =
        n.inputs.empty() ? nullptr : &g.at(n.inputs[0]).type;
    switch (n.kind) {
      case NodeKind::kInput:
        if (n.type.rank == 0) fail(g, n, "input node has no value type");
        break;
      case NodeKind::kConv: {
        expect_rank(g, n, *in, 3);
        if (in->channels != n.conv->in_channels()) {
          fail(g, n, "expects " + std::to_string(n.conv->in_channels()) +
                         " channels, got " + in->to_string());
        }
        const std::int64_t k = n.conv->kernel(), s = n.conv->stride(),
                           p = n.conv->pad();
        n.type = ValueType::chw(n.conv->out_channels(),
                                (in->height + 2 * p - k) / s + 1,
                                (in->width + 2 * p - k) / s + 1);
        break;
      }
      case NodeKind::kDepthwiseConv: {
        expect_rank(g, n, *in, 3);
        if (in->channels != n.dwconv->channels()) {
          fail(g, n, "expects " + std::to_string(n.dwconv->channels()) +
                         " channels, got " + in->to_string());
        }
        const std::int64_t k = n.dwconv->kernel(), s = n.dwconv->stride(),
                           p = n.dwconv->pad();
        n.type = ValueType::chw(n.dwconv->channels(),
                                (in->height + 2 * p - k) / s + 1,
                                (in->width + 2 * p - k) / s + 1);
        break;
      }
      case NodeKind::kLinear:
        expect_rank(g, n, *in, 1);
        if (in->channels != n.linear->in_features()) {
          fail(g, n, "expects " + std::to_string(n.linear->in_features()) +
                         " features, got " + in->to_string());
        }
        n.type = ValueType::features(n.linear->out_features());
        break;
      case NodeKind::kBatchNorm:
        expect_rank(g, n, *in, 3);
        if (!n.bn->bypassed() && in->channels != n.bn->channels()) {
          fail(g, n, "normalises " + std::to_string(n.bn->channels()) +
                         " channels, got " + in->to_string());
        }
        n.type = *in;
        break;
      case NodeKind::kReLU:
      case NodeKind::kQuantize:
      case NodeKind::kOutput:
        n.type = *in;
        break;
      case NodeKind::kMaxPool:
        expect_rank(g, n, *in, 3);
        n.type = ValueType::chw(
            in->channels, (in->height - n.pool_kernel) / n.pool_stride + 1,
            (in->width - n.pool_kernel) / n.pool_stride + 1);
        break;
      case NodeKind::kGlobalAvgPool:
        expect_rank(g, n, *in, 3);
        n.type = ValueType::features(in->channels);
        break;
      case NodeKind::kFlatten:
        if (in->rank == 1) {
          n.type = *in;
        } else {
          expect_rank(g, n, *in, 3);
          n.type = ValueType::features(in->channels * in->height * in->width);
        }
        break;
      case NodeKind::kAdd: {
        const ValueType& a = g.at(n.inputs[0]).type;
        const ValueType& b = g.at(n.inputs[1]).type;
        if (a != b) {
          fail(g, n, "operand shapes disagree: " + a.to_string() + " vs " +
                         b.to_string());
        }
        n.type = a;
        break;
      }
    }
  }
}

void verify(const Graph& g) {
  // topo_order() validates edge targets and acyclicity.
  const std::vector<int> order = g.topo_order();

  int inputs = 0, outputs = 0;
  for (int id : order) {
    const Node& n = g.at(id);
    const std::size_t arity = n.kind == NodeKind::kInput ? 0
                              : n.kind == NodeKind::kAdd ? 2
                                                         : 1;
    if (n.inputs.size() != arity) {
      fail(g, n, "expects " + std::to_string(arity) + " input(s), has " +
                     std::to_string(n.inputs.size()));
    }
    inputs += n.kind == NodeKind::kInput;
    outputs += n.kind == NodeKind::kOutput;
    switch (n.kind) {
      case NodeKind::kConv:
        if (n.conv == nullptr) fail(g, n, "has no bound Conv2d");
        break;
      case NodeKind::kDepthwiseConv:
        if (n.dwconv == nullptr) fail(g, n, "has no bound DepthwiseConv2d");
        break;
      case NodeKind::kLinear:
        if (n.linear == nullptr) fail(g, n, "has no bound Linear");
        break;
      case NodeKind::kBatchNorm:
        if (n.bn == nullptr) fail(g, n, "has no bound BatchNorm2d");
        break;
      case NodeKind::kQuantize:
        if (n.quant_enabled && n.bits < 1) fail(g, n, "has no bit-width");
        break;
      case NodeKind::kAdd:
        if (n.type.rank != 0 &&
            g.at(n.inputs[0]).type != g.at(n.inputs[1]).type) {
          fail(g, n, "operand shapes disagree");
        }
        break;
      default:
        break;
    }
  }
  if (inputs != 1 || outputs != 1) {
    throw std::invalid_argument(
        "graph '" + g.name() + "': expected exactly one input and one " +
        "output node, found " + std::to_string(inputs) + " / " +
        std::to_string(outputs));
  }
}

bool fold_batchnorm(Graph& g) {
  bool changed = false;
  for (int id : g.topo_order()) {
    Node& n = g.at(id);
    if (n.dead || n.kind != NodeKind::kBatchNorm) continue;
    const int producer_id = n.inputs[0];
    Node& p = g.at(producer_id);
    if (n.bn->bypassed()) {
      // Identity (removed unit): route consumers straight to the producer.
      g.rewire_consumers(id, producer_id);
      g.remove(id);
      changed = true;
    } else if ((p.kind == NodeKind::kConv ||
                p.kind == NodeKind::kDepthwiseConv) &&
               p.bn == nullptr && g.consumers(producer_id).size() == 1) {
      p.bn = n.bn;
      g.rewire_consumers(id, producer_id);
      g.remove(id);
      changed = true;
    }
  }
  return changed;
}

bool fuse_relu_epilogue(Graph& g) {
  bool changed = false;
  for (int id : g.topo_order()) {
    Node& n = g.at(id);
    if (n.dead || n.kind != NodeKind::kReLU) continue;
    const int producer_id = n.inputs[0];
    Node& p = g.at(producer_id);
    if ((is_gemm(p.kind) || p.kind == NodeKind::kAdd) && !p.fused_relu &&
        g.consumers(producer_id).size() == 1) {
      p.fused_relu = true;
      g.rewire_consumers(id, producer_id);
      g.remove(id);
      changed = true;
    }
  }
  return changed;
}

bool elide_quantize(Graph& g) {
  bool changed = false;
  // Absorptions can expose further elisions (a chain of quantizers thins
  // front to back), so sweep to a fixpoint.
  for (bool sweep_changed = true; sweep_changed;) {
    sweep_changed = false;
    for (int id : g.topo_order()) {
      Node& n = g.at(id);
      if (n.dead || n.kind != NodeKind::kQuantize) continue;
      if (!n.quant_enabled || n.bits >= 24) {
        // FakeQuantizer::apply is the identity here.
        g.rewire_consumers(id, n.inputs[0]);
        g.remove(id);
        sweep_changed = true;
        continue;
      }
      const std::vector<int> cs = g.consumers(id);
      if (cs.size() != 1) continue;
      Node& c = g.at(cs[0]);
      // The integer GEMM performs exactly this observation + rounding on
      // its input, so a preceding same-grid quantizer is the op's own input
      // quantizer written as dataflow — absorb it. A consumer that already
      // quantizes (e.g. a downsample conv behind the Fig-2 skip quantizer)
      // genuinely double-quantizes in training; its quantizer stays.
      if (is_gemm(c.kind) && !c.quantize_input && gemm_bits(c) == n.bits) {
        c.quantize_input = true;
        g.rewire_consumers(id, n.inputs[0]);
        g.remove(id);
        sweep_changed = true;
      }
    }
    changed = changed || sweep_changed;
  }
  return changed;
}

bool eliminate_dead_nodes(Graph& g) {
  std::vector<bool> reachable(static_cast<std::size_t>(g.size()), false);
  std::vector<int> stack;
  if (g.output() >= 0 && !g.at(g.output()).dead) stack.push_back(g.output());
  while (!stack.empty()) {
    const int id = stack.back();
    stack.pop_back();
    if (reachable[static_cast<std::size_t>(id)]) continue;
    reachable[static_cast<std::size_t>(id)] = true;
    for (int in : g.at(id).inputs) stack.push_back(in);
  }
  bool changed = false;
  // Reverse order so a dead chain's consumers die before their producers
  // (remove() insists on consumer-free nodes).
  for (int id = g.size() - 1; id >= 0; --id) {
    Node& n = g.at(id);
    if (n.dead || reachable[static_cast<std::size_t>(id)] ||
        n.kind == NodeKind::kInput) {
      continue;
    }
    g.remove(id);
    changed = true;
  }
  return changed;
}

namespace {

// Nodes that actually read `id`'s bytes, looking through pure flatten
// views. kOutput counts as a reader — the final value must stay float for
// the caller.
void effective_consumers(const Graph& g, int id, std::vector<int>& out) {
  for (int c : g.consumers(id)) {
    if (g.at(c).kind == NodeKind::kFlatten) {
      effective_consumers(g, c, out);
    } else {
      out.push_back(c);
    }
  }
}

int storage_cell(const ActStorageOptions& opts, int qbits, double density) {
  return ad::choose_act_cell(cell_bits_for(qbits), density,
                             opts.dense_threshold);
}

}  // namespace

int assign_act_bits(Graph& g, const ActStorageOptions& opts) {
  for (int id = 0; id < g.size(); ++id) {
    Node& n = g.at(id);
    n.mem.act_bits = 0;
    n.mem.act_qbits = 0;
  }
  if (opts.mode == ActStorageOptions::Mode::kOff) return 0;
  const int ceiling = std::min(opts.max_integer_bits, 8);
  int packed = 0;
  for (int id : g.topo_order()) {
    Node& n = g.at(id);
    // The caller-owned input tensor and pure views never own packed
    // storage (views inherit their input's storage in plan_memory).
    if (n.kind == NodeKind::kInput || n.kind == NodeKind::kFlatten ||
        n.kind == NodeKind::kOutput) {
      continue;
    }
    std::vector<int> cs;
    effective_consumers(g, id, cs);
    if (cs.empty()) continue;

    // Identity-flavor skip quantizer (Fig 2): feeds only the residual add.
    // fake_quantize == dequantize(quantize_act) bit for bit, so the node
    // can store its own eqn-1 codes and defer the dequantize to the add —
    // act_qbits = 0 marks "self-coded at node bits".
    if (n.kind == NodeKind::kQuantize && n.quant_enabled && n.bits >= 1 &&
        n.bits <= ceiling && cs.size() == 1 &&
        g.at(cs[0]).kind == NodeKind::kAdd) {
      n.mem.act_bits =
          storage_cell(opts, n.bits, g.at(n.inputs[0]).ad_density);
      n.mem.act_qbits = 0;
      ++packed;
      continue;
    }

    // General rule: every effective consumer is an integer-path GEMM and
    // all quantize on one common grid — the stored codes are then exactly
    // what each consumer's own quantize_act would compute, so storage as
    // codes is lossless. Any non-GEMM reader (pool, add, output, a
    // different-grid GEMM, a float-path layer) keeps the value float.
    int common_bits = -1;
    bool packable = true;
    for (int c : cs) {
      const Node& cn = g.at(c);
      if (!is_gemm(cn.kind) || !cn.quantize_input) {
        packable = false;
        break;
      }
      const int b = gemm_bits(cn);
      if (b < 1 || b > ceiling || (common_bits >= 0 && b != common_bits)) {
        packable = false;
        break;
      }
      common_bits = b;
    }
    if (!packable || common_bits < 1) continue;
    n.mem.act_bits = storage_cell(opts, common_bits, n.ad_density);
    n.mem.act_qbits = common_bits;
    ++packed;
  }
  return packed;
}

namespace {

void maybe_dump(const Graph& g, int stage_index, const char* stage) {
  const char* dir = std::getenv("ADQ_DUMP_GRAPH");
  if (dir == nullptr || *dir == '\0') return;
  char index[8];
  std::snprintf(index, sizeof(index), "%02d", stage_index);
  const std::string path = std::string(dir) + "/" + g.name() + "_" + index +
                           "_" + stage + ".dot";
  std::ofstream out(path);
  if (!out) return;  // an unwritable dump dir must never fail a compile
  out << to_dot(g);
}

}  // namespace

void legalize(Graph& g) {
  int stage = 0;
  maybe_dump(g, stage++, "built");
  // Structural checks first — they need no types and make the malformed
  // cases (bad arity, dangling edges, cycles) fail with a clean error
  // before inference walks the edges.
  verify(g);
  infer_shapes(g);
  maybe_dump(g, stage++, "verified");
  fold_batchnorm(g);
  maybe_dump(g, stage++, "bn_fold");
  fuse_relu_epilogue(g);
  maybe_dump(g, stage++, "fuse_relu");
  elide_quantize(g);
  maybe_dump(g, stage++, "elide_quantize");
  eliminate_dead_nodes(g);
  maybe_dump(g, stage++, "dce");
  // Passes must leave a well-formed graph; re-run inference so fused nodes
  // carry final types, then re-verify.
  infer_shapes(g);
  verify(g);
  maybe_dump(g, stage++, "legal");
}

// ---------------------------------------------------------------------------
// Static activation-memory planning.
// ---------------------------------------------------------------------------

ResidualParts decompose_residual(const Graph& g, int add_id) {
  const Node& add = g.at(add_id);
  // Build convention: inputs[0] = main branch, inputs[1] = skip branch.
  // The skip branch may hold [quantize] [conv]; beneath it is the fork
  // value both branches share. A node that feeds anything besides the
  // skip branch IS the fork (e.g. an identity skip whose quantizer was
  // elided lands the add directly on the shared producer — even when
  // that producer happens to be a conv), so only sole-consumer nodes are
  // consumed into the skip chain.
  ResidualParts parts;
  int skip = add.inputs[1];
  if ((g.at(skip).kind == NodeKind::kConv ||
       g.at(skip).kind == NodeKind::kDepthwiseConv) &&
      g.consumers(skip).size() == 1) {
    parts.downsample = skip;
    skip = g.at(skip).inputs[0];
  }
  if (g.at(skip).kind == NodeKind::kQuantize &&
      g.consumers(skip).size() == 1) {
    parts.quantize = skip;
    skip = g.at(skip).inputs[0];
  }
  parts.fork = skip;

  // Main-branch chain from the fork (exclusive) to the add (exclusive).
  std::vector<int> chain;
  for (int m = add.inputs[0]; m != parts.fork;) {
    const Node& node = g.at(m);
    if (node.kind == NodeKind::kAdd || node.kind == NodeKind::kInput ||
        node.inputs.empty()) {
      fail(g, add, "main and skip branches do not meet at a common fork "
                   "the skip stack can express");
    }
    chain.push_back(m);
    m = node.inputs[0];
  }
  parts.main_chain.assign(chain.rbegin(), chain.rend());
  return parts;
}

namespace {

// Recursive mirror of the op emission in infer::lower_to_plan: appends the
// ids of every node producing a value, in the order the executor
// materialises them. A residual diamond runs its skip quantizer right
// after the fork (into its own slot), then the main chain, then the
// downsample conv just before the add.
void schedule_value(const Graph& g, int id, std::vector<int>& order) {
  const Node& n = g.at(id);
  switch (n.kind) {
    case NodeKind::kInput:
      order.push_back(id);
      return;
    case NodeKind::kAdd: {
      const ResidualParts parts = decompose_residual(g, id);
      schedule_value(g, parts.fork, order);
      if (parts.quantize >= 0) order.push_back(parts.quantize);
      for (int m : parts.main_chain) order.push_back(m);
      if (parts.downsample >= 0) order.push_back(parts.downsample);
      order.push_back(id);
      return;
    }
    default:
      schedule_value(g, n.inputs[0], order);
      order.push_back(id);
      return;
  }
}

std::int64_t value_elems(const ValueType& t) {
  return t.rank == 3 ? t.channels * t.height * t.width : t.channels;
}

// Slots are aligned so that batch-scaling offsets (offset * B) preserves
// cache-line alignment for any batch size.
constexpr std::int64_t kSlotAlign = 64;

std::int64_t align_up(std::int64_t n) {
  return (n + kSlotAlign - 1) / kSlotAlign * kSlotAlign;
}

}  // namespace

std::vector<int> execution_schedule(const Graph& g) {
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(g.live_count()));
  schedule_value(g, g.output(), order);
  return order;
}

namespace {

std::int64_t plan_memory_impl(Graph& g, const ActStorageOptions& opts) {
  assign_act_bits(g, opts);
  const std::vector<int> schedule = execution_schedule(g);
  std::vector<int> pos(static_cast<std::size_t>(g.size()), -1);
  for (std::size_t p = 0; p < schedule.size(); ++p) {
    pos[static_cast<std::size_t>(schedule[p])] = static_cast<int>(p);
  }
  std::vector<std::vector<int>> consumers(static_cast<std::size_t>(g.size()));
  for (int id = 0; id < g.size(); ++id) {
    if (pos[static_cast<std::size_t>(id)] >= 0) {
      consumers[static_cast<std::size_t>(id)] = g.consumers(id);
    }
  }

  // Per-value annotations: definition step and the last step that reads
  // the value (its own step when nothing consumes it — the output value).
  for (int id : schedule) {
    Node& n = g.at(id);
    const int act_bits = n.mem.act_bits, act_qbits = n.mem.act_qbits;
    n.mem = ValueMem{};
    n.mem.act_bits = act_bits;
    n.mem.act_qbits = act_qbits;
    n.mem.def = pos[static_cast<std::size_t>(id)];
    n.mem.last_use = n.mem.def;
    for (int c : consumers[static_cast<std::size_t>(id)]) {
      n.mem.last_use = std::max(n.mem.last_use, pos[static_cast<std::size_t>(c)]);
    }
    if (n.kind != NodeKind::kInput && n.type.rank == 0) {
      fail(g, n, "has no inferred shape — run legalize() before plan_memory()");
    }
    // Pure views carry the same bytes as the value they reinterpret — a
    // flatten of a packed value must not widen the shared slot to float.
    if (n.kind == NodeKind::kFlatten || n.kind == NodeKind::kOutput) {
      const ValueMem& src = g.at(n.inputs[0]).mem;
      n.mem.act_bits = src.act_bits;
      n.mem.act_qbits = src.act_qbits;
    }
    n.mem.bytes =
        n.mem.act_bits > 0
            ? packed_bytes(value_elems(n.type), n.mem.act_bits)
            : value_elems(n.type) * static_cast<std::int64_t>(sizeof(float));
  }

  // Storage groups: every value either owns a slot (its own id as root) or
  // aliases its input's storage. Pure views (flatten, output) always alias;
  // write-aliases (standalone quantize/ReLU, the residual add into its main
  // operand) are legal only when no later step still reads the aliased
  // slot and the slot is not the caller-owned input tensor.
  std::vector<int> root(static_cast<std::size_t>(g.size()), -1);
  std::vector<std::vector<int>> members(static_cast<std::size_t>(g.size()));
  const auto group_read_after = [&](int r, int p) {
    for (int m : members[static_cast<std::size_t>(r)]) {
      for (int c : consumers[static_cast<std::size_t>(m)]) {
        if (pos[static_cast<std::size_t>(c)] > p) return true;
      }
    }
    return false;
  };
  for (int id : schedule) {
    Node& n = g.at(id);
    const int p = pos[static_cast<std::size_t>(id)];
    int r = id;
    switch (n.kind) {
      case NodeKind::kFlatten:
      case NodeKind::kOutput:
        r = root[static_cast<std::size_t>(n.inputs[0])];  // pure view
        break;
      case NodeKind::kReLU:
      case NodeKind::kQuantize:
      case NodeKind::kAdd: {
        const int in_root = root[static_cast<std::size_t>(n.inputs[0])];
        // Packed values never alias in place: the op's packed output bytes
        // would overlap the float words it is still reading (and the
        // parallel pack chunks would race the reads). A packed input slot
        // is likewise never rewritten with float words.
        if (n.mem.act_bits == 0 &&
            g.at(in_root).mem.act_bits == 0 &&
            in_root != g.input() && !group_read_after(in_root, p)) {
          r = in_root;
          n.mem.inplace = true;
        }
        break;
      }
      default:
        break;
    }
    root[static_cast<std::size_t>(id)] = r;
    members[static_cast<std::size_t>(r)].push_back(id);
  }

  // Pack the slot-owning groups with greedy first-fit by size. Two groups
  // may share bytes only when their live intervals (closed, in schedule
  // steps) are disjoint. Ordering is fully tie-broken, so offsets are
  // deterministic across runs — a plan compiled twice is byte-identical.
  struct Slot {
    int root;
    std::int64_t bytes;  // aligned
    int def, last;
    std::int64_t offset = -1;
  };
  std::vector<Slot> slots;
  for (int id : schedule) {
    if (root[static_cast<std::size_t>(id)] != id || id == g.input()) continue;
    Slot s;
    s.root = id;
    s.bytes = 0;
    s.def = g.at(id).mem.def;
    s.last = g.at(id).mem.def;
    for (int m : members[static_cast<std::size_t>(id)]) {
      s.bytes = std::max(s.bytes, g.at(m).mem.bytes);
      s.last = std::max(s.last, g.at(m).mem.last_use);
    }
    s.bytes = align_up(s.bytes);
    slots.push_back(s);
  }
  std::vector<std::size_t> by_size(slots.size());
  for (std::size_t i = 0; i < slots.size(); ++i) by_size[i] = i;
  std::sort(by_size.begin(), by_size.end(), [&](std::size_t a, std::size_t b) {
    if (slots[a].bytes != slots[b].bytes) return slots[a].bytes > slots[b].bytes;
    if (slots[a].def != slots[b].def) return slots[a].def < slots[b].def;
    return slots[a].root < slots[b].root;
  });
  std::int64_t arena_bytes = 0;
  std::vector<std::size_t> placed;
  std::vector<std::pair<std::int64_t, std::int64_t>> busy;  // [begin, end)
  for (std::size_t i : by_size) {
    Slot& s = slots[i];
    busy.clear();
    for (std::size_t j : placed) {
      const Slot& o = slots[j];
      if (s.def <= o.last && o.def <= s.last) {
        busy.emplace_back(o.offset, o.offset + o.bytes);
      }
    }
    std::sort(busy.begin(), busy.end());
    std::int64_t off = 0;
    for (const auto& [b, e] : busy) {
      if (off + s.bytes <= b) break;  // fits in the gap before this interval
      off = std::max(off, e);
    }
    s.offset = off;
    arena_bytes = std::max(arena_bytes, off + s.bytes);
    placed.push_back(i);
  }

  for (const Slot& s : slots) {
    for (int m : members[static_cast<std::size_t>(s.root)]) {
      g.at(m).mem.offset = s.offset;
    }
  }
  return arena_bytes;
}

}  // namespace

std::int64_t plan_memory(Graph& g, const ActStorageOptions& opts) {
  // Pack the float-storage baseline first (reported as arena_bytes_u8 —
  // what the arena would cost with compression off), then the real run,
  // whose annotations stick. Both runs share the schedule, tie-breaks and
  // alignment, so the pair is deterministic.
  ActStorageOptions off = opts;
  off.mode = ActStorageOptions::Mode::kOff;
  const std::int64_t u8 = plan_memory_impl(g, off);
  std::int64_t bytes = u8;
  if (opts.mode != ActStorageOptions::Mode::kOff) {
    bytes = plan_memory_impl(g, opts);
  }
  g.set_arena_bytes(bytes);
  g.set_arena_bytes_u8(u8);
  maybe_dump(g, 7, "memplan");
  return bytes;
}

}  // namespace adq::graph
