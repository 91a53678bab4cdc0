// Static activation-memory planner + slot-based arena executor tests.
//
// MemPlanner: properties of graph::plan_memory — on randomized DAGs
// (chains + residual diamonds) a byte-level replay of the execution
// schedule proves no live value is ever clobbered by another slot;
// offsets are deterministic across runs; the Fig-2 ResNet skip quantizer
// runs eagerly into its own slot while unfused ReLUs execute in place;
// packing genuinely reuses memory (arena << sum of values).
//
// ArenaExec: the measured peak activation footprint equals the planner's
// predicted arena_bytes; inconsistent slot layouts and off-plan input
// shapes are rejected; and — via a global operator new/delete counter — a
// steady-state forward_into() performs ZERO heap allocations. The
// executor's logits are pinned by the GoldenLogits fixtures
// (test_infer.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

// Replaces global operator new/delete: overriding them is the only way to
// observe *every* heap allocation the forward path makes, including ones
// from the standard library. Counting is gated so the test harness's own
// allocations (gtest, message formatting) do not pollute the bracket.
#include "bench/alloc_counter.h"
#include "graph/build.h"
#include "graph/graph.h"
#include "graph/passes.h"
#include "infer/engine.h"
#include "infer/plan.h"
#include "models/mobilenet.h"
#include "models/resnet.h"
#include "models/vgg.h"
#include "tensor/ops.h"
#include "tensor/rng.h"

namespace adq::infer {
namespace {

// ---------------------------------------------------------------------------
// MemPlanner — planner properties.
// ---------------------------------------------------------------------------

graph::Graph input_graph(std::int64_t c, std::int64_t h, std::int64_t w) {
  graph::Graph g("memplan");
  graph::Node in;
  in.kind = graph::NodeKind::kInput;
  in.name = "input";
  in.type = graph::ValueType::chw(c, h, w);
  g.set_input(g.add(std::move(in)));
  return g;
}

int add_node(graph::Graph& g, graph::NodeKind kind, const std::string& name,
             std::vector<int> inputs, int bits = 0) {
  graph::Node n;
  n.kind = kind;
  n.name = name;
  n.inputs = std::move(inputs);
  n.bits = bits;
  if (kind == graph::NodeKind::kAdd) n.fused_relu = true;
  return g.add(std::move(n));
}

// Random lowerable DAG: straight-line sections of elementwise ops and
// pools, interleaved with residual diamonds (1-3 elementwise main-chain
// ops, optionally a Fig-2 skip quantizer).
graph::Graph random_graph(Rng& rng, int sections) {
  graph::Graph g = input_graph(4, 16, 16);
  int cur = g.input();
  std::int64_t height = 16;  // tracked so pools never shrink maps to zero
  int uid = 0;
  auto name = [&](const char* base) {
    return std::string(base) + std::to_string(uid++);
  };
  for (int s = 0; s < sections; ++s) {
    switch (rng.uniform_int(0, 3)) {
      case 0:
        cur = add_node(g, graph::NodeKind::kReLU, name("relu"), {cur});
        break;
      case 1:
        cur = add_node(g, graph::NodeKind::kQuantize, name("q"), {cur}, 5);
        break;
      case 2:
        if (height < 4) break;  // keep the maps non-degenerate
        cur = add_node(g, graph::NodeKind::kMaxPool, name("pool"), {cur});
        height /= 2;
        break;
      case 3: {  // residual diamond over elementwise ops
        const int fork = cur;
        int skip = fork;
        if (rng.uniform_int(0, 1) == 1) {
          skip = add_node(g, graph::NodeKind::kQuantize, name("skip_q"),
                          {fork}, 4);
        }
        int main = fork;
        const int chain = static_cast<int>(rng.uniform_int(1, 3));
        for (int i = 0; i < chain; ++i) {
          main = i % 2 == 0
                     ? add_node(g, graph::NodeKind::kReLU, name("m_relu"),
                                {main})
                     : add_node(g, graph::NodeKind::kQuantize, name("m_q"),
                                {main}, 6);
        }
        cur = add_node(g, graph::NodeKind::kAdd, name("add"), {main, skip});
        break;
      }
    }
  }
  g.set_output(add_node(g, graph::NodeKind::kOutput, "output", {cur}));
  return g;
}

// Byte-level replay of the planned schedule: every slot-owning or
// in-place node stamps its byte range with its id; every edge read
// verifies the producing value's bytes still carry the right stamp. Any
// two live intervals sharing arena bytes fail this immediately.
void expect_no_live_overlap(const graph::Graph& g) {
  const std::vector<int> schedule = graph::execution_schedule(g);
  const std::int64_t arena = g.arena_bytes();
  std::vector<int> stamp_of(static_cast<std::size_t>(g.size()), -1);
  std::vector<int> arena_stamp(static_cast<std::size_t>(arena), -1);
  for (int id : schedule) {
    const graph::Node& n = g.at(id);
    // Verify reads first: each input's bytes must still be intact.
    for (int in : n.inputs) {
      const graph::Node& v = g.at(in);
      if (v.mem.offset < 0) continue;  // caller-owned input
      for (std::int64_t b = v.mem.offset; b < v.mem.offset + v.mem.bytes;
           ++b) {
        ASSERT_EQ(arena_stamp[static_cast<std::size_t>(b)],
                  stamp_of[static_cast<std::size_t>(in)])
            << "value '" << v.name << "' clobbered before its last use at "
            << "step of '" << n.name << "' (byte " << b << ")";
      }
    }
    // Then the write (or view) this node performs.
    const bool pure_view = n.kind == graph::NodeKind::kFlatten ||
                           n.kind == graph::NodeKind::kOutput ||
                           n.kind == graph::NodeKind::kInput;
    if (pure_view) {
      stamp_of[static_cast<std::size_t>(id)] =
          n.inputs.empty() ? -1 : stamp_of[static_cast<std::size_t>(n.inputs[0])];
      continue;
    }
    ASSERT_GE(n.mem.offset, 0) << n.name;
    ASSERT_EQ(n.mem.offset % 64, 0) << n.name;
    ASSERT_LE(n.mem.offset + n.mem.bytes, arena) << n.name;
    stamp_of[static_cast<std::size_t>(id)] = id;
    for (std::int64_t b = n.mem.offset; b < n.mem.offset + n.mem.bytes; ++b) {
      arena_stamp[static_cast<std::size_t>(b)] = id;
    }
  }
}

TEST(MemPlanner, RandomizedDagsNeverOverlapLiveValues) {
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(900 + seed);
    graph::Graph g = random_graph(rng, 2 + static_cast<int>(seed % 7));
    graph::infer_shapes(g);
    graph::verify(g);
    const std::int64_t arena = graph::plan_memory(g);
    ASSERT_GT(arena, 0) << "seed " << seed;
    expect_no_live_overlap(g);
  }
}

TEST(MemPlanner, OffsetsAreDeterministicAcrossRuns) {
  for (std::uint64_t seed : {3u, 11u, 27u}) {
    auto build = [&] {
      Rng rng(700 + seed);
      graph::Graph g = random_graph(rng, 6);
      graph::infer_shapes(g);
      graph::verify(g);
      graph::plan_memory(g);
      return g;
    };
    const graph::Graph a = build();
    const graph::Graph b = build();
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a.arena_bytes(), b.arena_bytes());
    for (int i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a.at(i).mem.offset, b.at(i).mem.offset) << a.at(i).name;
      EXPECT_EQ(a.at(i).mem.def, b.at(i).mem.def);
      EXPECT_EQ(a.at(i).mem.last_use, b.at(i).mem.last_use);
    }
  }
}

std::unique_ptr<models::QuantizableModel> small_resnet(int bits,
                                                       std::uint64_t seed) {
  Rng rng(seed);
  models::ResNetConfig cfg;
  cfg.width_mult = 0.0625;
  cfg.num_classes = 10;
  cfg.input_size = 16;
  auto model = models::build_resnet18(cfg, rng);
  model->set_training(false);
  for (int i = 0; i < model->unit_count(); ++i) {
    if (!model->unit(i).frozen) model->unit(i).set_bits(bits);
  }
  return model;
}

std::unique_ptr<models::QuantizableModel> small_vgg(std::uint64_t seed) {
  Rng rng(seed);
  models::VggConfig cfg;
  cfg.width_mult = 0.0625;
  cfg.num_classes = 10;
  auto model = models::build_vgg19(cfg, rng);
  model->set_training(false);
  for (int i = 0; i < model->unit_count(); ++i) {
    if (!model->unit(i).frozen) model->unit(i).set_bits(8);
  }
  return model;
}

graph::ActStorageOptions float_slots() {
  graph::ActStorageOptions opts;
  opts.mode = graph::ActStorageOptions::Mode::kOff;
  return opts;
}

// Every kQuantizeSkip op sits right after its push and owns a slot.
int count_eager_skip_quantizers(const InferencePlan& plan) {
  int eager = 0;
  for (std::size_t i = 1; i < plan.ops.size(); ++i) {
    if (plan.ops[i].kind != OpKind::kQuantizeSkip) continue;
    EXPECT_GE(plan.ops[i].out_offset, 0) << "op " << i;
    EXPECT_EQ(static_cast<int>(plan.ops[i - 1].kind),
              static_cast<int>(OpKind::kPushSkip))
        << "op " << i << " is not scheduled right after its push";
    ++eager;
  }
  return eager;
}

TEST(MemPlanner, FloatSkipQuantizerRunsEagerlyIntoAFreshSlot) {
  // A float skip quantizer runs right after the fork, like a packed one:
  // the main branch still reads the fork, so the planner must give the
  // quantized skip a slot of its own in EVERY residual block.
  auto model = small_resnet(4, 81);
  graph::Graph g = graph::build_from_model(*model);
  graph::legalize(g);
  graph::plan_memory(g, float_slots());
  int skip_quantizers = 0;
  for (int i = 0; i < g.size(); ++i) {
    const graph::Node& n = g.at(i);
    if (n.dead || n.kind != graph::NodeKind::kQuantize) continue;
    ++skip_quantizers;
    EXPECT_FALSE(n.mem.inplace) << n.name;
    EXPECT_EQ(n.mem.act_bits, 0) << n.name;
    EXPECT_NE(n.mem.offset, g.at(n.inputs[0]).mem.offset) << n.name;
  }
  EXPECT_EQ(skip_quantizers, 8);  // one per residual block
  EXPECT_EQ(count_eager_skip_quantizers(lower_to_plan(g)), 8);

  // Above the integer ceiling the skip quantizers stay float in a default
  // compile too (the 16-bit models as built).
  auto wide = small_resnet(16, 81);
  const InferencePlan plan = compile(*wide);
  for (const OpPlan& op : plan.ops) {
    if (op.kind == OpKind::kQuantizeSkip) {
      EXPECT_EQ(op.out_act_bits, 0);
    }
  }
  EXPECT_EQ(count_eager_skip_quantizers(plan), 8);
}

TEST(MemPlanner, UnfusedReluRunsInPlace) {
  // A removed (bypassed) conv leaves its ReLU standalone; its input has no
  // other reader, so it must execute in place.
  auto model = small_vgg(82);
  model->remove_unit(1);
  const InferencePlan plan = compile(*model);
  int standalone_relus = 0;
  for (const OpPlan& op : plan.ops) {
    if (op.kind != OpKind::kReLU) continue;
    ++standalone_relus;
    EXPECT_EQ(op.out_offset, -1);
  }
  EXPECT_EQ(standalone_relus, 1);
}

TEST(MemPlanner, PackingReusesMemory) {
  // The arena must sit well below the sum of all activation values — the
  // whole point of lifetime packing. VGG19 peaks where the two largest
  // conv maps are simultaneously live (producer + consumer at the first
  // stack), so the arena is exactly two peak slabs, not the network total.
  // Float storage: packed cells shrink the peak slabs asymmetrically (the
  // producer packs, its float input does not), breaking the 2x identity
  // this test pins.
  auto model = small_vgg(83);
  graph::Graph g = graph::build_from_model(*model);
  graph::legalize(g);
  const std::int64_t arena = graph::plan_memory(g, float_slots());
  std::int64_t total = 0, largest = 0;
  for (int i = 0; i < g.size(); ++i) {
    if (g.at(i).dead || i == g.input()) continue;
    total += g.at(i).mem.bytes;
    largest = std::max(largest, g.at(i).mem.bytes);
  }
  ASSERT_GT(arena, 0);
  EXPECT_LT(arena, total / 2);
  EXPECT_EQ(arena, 2 * largest);  // producer + consumer of the peak layer
}

TEST(MemPlanner, CompiledPlansAreByteDeterministic) {
  auto model_a = small_resnet(4, 84);
  auto model_b = small_resnet(4, 84);
  const InferencePlan a = compile(*model_a);
  const InferencePlan b = compile(*model_b);
  ASSERT_EQ(a.ops.size(), b.ops.size());
  EXPECT_EQ(a.arena_bytes, b.arena_bytes);
  for (std::size_t i = 0; i < a.ops.size(); ++i) {
    EXPECT_EQ(a.ops[i].out_offset, b.ops[i].out_offset) << "op " << i;
  }
}

// ---------------------------------------------------------------------------
// MemPlanner — compressed activation slots.
// ---------------------------------------------------------------------------

std::unique_ptr<models::QuantizableModel> paper_mixed_resnet(
    std::uint64_t seed) {
  Rng rng(seed);
  models::ResNetConfig cfg;
  cfg.width_mult = 0.0625;
  cfg.num_classes = 10;
  cfg.input_size = 16;
  auto model = models::build_resnet18(cfg, rng);
  model->set_training(false);
  // Table II(b) iteration-2 unit bits, clipped to the 8-bit integer
  // ceiling (wider layers run the float path and keep float slots).
  const std::vector<int> bits{16, 5, 3, 3,  11, 1, 1, 11, 4,
                              4,  10, 4, 4, 11, 3, 3, 9,  16};
  for (int i = 0; i < model->unit_count(); ++i) {
    if (!model->unit(i).frozen) {
      model->unit(i).set_bits(
          std::min(bits[static_cast<std::size_t>(i) % bits.size()], 8));
    }
  }
  return model;
}

std::unique_ptr<models::QuantizableModel> mixed_mobilenet(std::uint64_t seed) {
  Rng rng(seed);
  models::MobileNetConfig cfg;
  cfg.width_mult = 0.25;
  cfg.num_classes = 10;
  auto model = models::build_mobilenet_small(cfg, rng);
  model->set_training(false);
  const int pattern[] = {8, 4, 2};
  for (int i = 0; i < model->unit_count(); ++i) {
    if (!model->unit(i).frozen) model->unit(i).set_bits(pattern[i % 3]);
  }
  return model;
}

TEST(MemPlanner, PackedArenaShrinksAtLeast35PctOnMixedPlans) {
  // The tentpole's acceptance bar: sub-byte activation cells shrink the
  // paper-mixed ResNet18 and MobileNet-small arenas by at least 35%
  // against the float-slot baseline the planner records alongside.
  for (auto& plan : {compile(*paper_mixed_resnet(181)),
                     compile(*mixed_mobilenet(182))}) {
    ASSERT_GT(plan.arena_bytes, 0) << plan.model_name;
    ASSERT_GT(plan.arena_bytes_u8, 0) << plan.model_name;
    EXPECT_LE(static_cast<double>(plan.arena_bytes),
              0.65 * static_cast<double>(plan.arena_bytes_u8))
        << plan.model_name << ": arena " << plan.arena_bytes << " vs "
        << plan.arena_bytes_u8 << " float baseline";
  }
}

TEST(MemPlanner, PackedSkipQuantizerRunsEagerlyIntoAFreshSlot) {
  // A packed skip quantizer cannot alias the fork in place (packed bytes
  // would overwrite float words the main chain still reads), so the
  // lowering schedules it eagerly — immediately after the push, while the
  // fork is untouched — into its own packed slot.
  auto model = small_resnet(4, 183);
  const InferencePlan plan = compile(*model);
  int packed_skips = 0;
  for (const OpPlan& op : plan.ops) {
    packed_skips += op.kind == OpKind::kQuantizeSkip && op.out_act_bits > 0;
  }
  EXPECT_EQ(packed_skips, 8);  // every residual block's quantizer packs
  EXPECT_EQ(count_eager_skip_quantizers(plan), 8);
}

TEST(MemPlanner, OffModeKeepsFloatSlotsAndBaselineEqual) {
  auto model = paper_mixed_resnet(184);
  graph::Graph g = graph::build_from_model(*model);
  graph::legalize(g);
  graph::plan_memory(g, float_slots());
  const InferencePlan plan = lower_to_plan(g);
  for (const OpPlan& op : plan.ops) {
    EXPECT_EQ(op.out_act_bits, 0);
    EXPECT_EQ(op.out_act_qbits, 0);
  }
  EXPECT_EQ(plan.arena_bytes_u8, plan.arena_bytes);
}

// ---------------------------------------------------------------------------
// ArenaExec — the slot-based executor.
// ---------------------------------------------------------------------------

TEST(ArenaExec, MeasuredPeakEqualsPlannedArenaBytes) {
  // Replaying the executor's shape walk over the planned slots, the
  // highest byte any op touches is exactly the planner's arena_bytes —
  // prediction and execution agree, with no slack and no overrun.
  for (auto& plan : {compile(*small_vgg(94)), compile(*small_resnet(4, 95))}) {
    const std::vector<std::int64_t> out_elems = plan.op_out_elems();
    std::int64_t peak = 0;
    for (std::size_t i = 0; i < plan.ops.size(); ++i) {
      const OpPlan& op = plan.ops[i];
      if (op.out_offset < 0) continue;
      // Packed slots hold act_bits-wide cells, float slots 4-byte words;
      // both round up to the 64-byte slot granule the planner allocates.
      const std::int64_t raw =
          op.out_act_bits > 0
              ? (out_elems[i] * op.out_act_bits + 7) / 8
              : out_elems[i] * static_cast<std::int64_t>(sizeof(float));
      peak = std::max(peak, op.out_offset + (raw + 63) / 64 * 64);
    }
    EXPECT_EQ(peak, plan.arena_bytes) << plan.model_name;
    const IntInferenceEngine engine(plan);
    EXPECT_EQ(engine.peak_activation_bytes(16), plan.arena_bytes * 16);
  }
}

TEST(ArenaExec, EngineRejectsOverlappingSlots) {
  // A checksum only proves a file arrived as written; the engine replays
  // the planned slots once at construction and must refuse a layout whose
  // writer's planner was broken — silently wrong logits are not an option.
  {
    // An op whose output slot overlaps the input it is still reading.
    auto model = small_vgg(86);
    InferencePlan plan = compile(*model);
    std::size_t first = 0;
    while (plan.ops[first].out_offset < 0) ++first;
    std::size_t second = first + 1;
    while (plan.ops[second].out_offset < 0) ++second;
    plan.ops[second].out_offset = plan.ops[first].out_offset;
    EXPECT_THROW(IntInferenceEngine{std::move(plan)}, std::runtime_error);
  }
  {
    // A main-chain conv writing its output over the residual fork slot it
    // is still reading.
    auto model = small_resnet(8, 87);
    InferencePlan plan = compile(*model);
    std::size_t stem = 0;
    while (plan.ops[stem].out_offset < 0) ++stem;
    std::size_t push = stem;
    while (plan.ops[push].kind != OpKind::kPushSkip) ++push;
    std::size_t conv2 = push + 2;  // push, conv1, conv2
    ASSERT_EQ(static_cast<int>(plan.ops[conv2].kind),
              static_cast<int>(OpKind::kGemm));
    plan.ops[conv2].out_offset = plan.ops[stem].out_offset;
    EXPECT_THROW(IntInferenceEngine{std::move(plan)}, std::runtime_error);
  }
}

TEST(ArenaExec, OffPlanInputShapeThrowsNamingBothShapes) {
  // ResNet's GAP head would accept any spatial size, but the arena was
  // planned for one: an off-plan shape is refused, never executed into
  // slots sized for another.
  auto model = small_resnet(8, 96);
  const IntInferenceEngine engine(compile(*model));
  Rng rng(97);
  Tensor x(Shape{2, 3, 20, 20});
  rng.fill_normal(x, 0.0f, 1.0f);
  EXPECT_FALSE(engine.uses_arena(x));
  try {
    engine.forward(x);
    FAIL() << "off-plan input executed";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("[2, 3, 20, 20]"), std::string::npos) << what;
    EXPECT_NE(what.find("[B, 3, 16, 16]"), std::string::npos) << what;
  }
  Tensor planned(Shape{2, 3, 16, 16});
  rng.fill_normal(planned, 0.0f, 1.0f);
  EXPECT_EQ(engine.forward(planned).shape(), (Shape{2, 10}));
}

TEST(ArenaExec, EngineRejectsPlanWithoutMemoryPlan) {
  InferencePlan plan = compile(*small_vgg(88));
  plan.arena_bytes = 0;
  try {
    IntInferenceEngine engine(std::move(plan));
    FAIL() << "plan without a memory plan accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("no memory plan"), std::string::npos)
        << e.what();
  }
}

TEST(ArenaExec, SteadyStateForwardMakesZeroHeapAllocations) {
  for (const bool residual : {false, true}) {
    const InferencePlan plan =
        residual ? compile(*small_resnet(4, 98)) : compile(*small_vgg(99));
    const IntInferenceEngine engine(plan);
    Rng rng(100);
    Tensor x(residual ? Shape{2, 3, 16, 16} : Shape{2, 3, 32, 32});
    rng.fill_normal(x, 0.0f, 1.0f);
    ASSERT_TRUE(engine.uses_arena(x));

    Tensor out;
    // Warm-up: grows the per-thread arena, code buffers, im2col slabs and
    // the output tensor once.
    for (int i = 0; i < 3; ++i) engine.forward_into(x, out);

    alloccount::g_alloc_count.store(0);
    alloccount::g_count_allocs.store(true);
    for (int i = 0; i < 5; ++i) engine.forward_into(x, out);
    alloccount::g_count_allocs.store(false);
    EXPECT_EQ(alloccount::g_alloc_count.load(), 0)
        << (residual ? "resnet" : "vgg")
        << ": steady-state forward_into allocated";
  }
}

}  // namespace
}  // namespace adq::infer
