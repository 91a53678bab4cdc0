// Graph IR + pass pipeline tests.
//
// The refactor's acceptance bar is that the graph pipeline is a drop-in
// replacement for the old dynamic_cast lowering chain: byte-for-byte
// identical compiled layers and op list for VGG19 and ResNet18 on fixed
// seeds (the logits themselves are pinned by the GoldenLogits fixtures in
// test_infer.cpp). The old compiler's walk is preserved below as
// `legacy_compile` — the reference this suite diffs against. On top of
// that: verifier rejections (cycles, arity, shape mismatches), pass
// idempotence, the depthwise-separable path the old compiler could not
// express, standalone-quantize lowering, and the to_dot / ADQ_DUMP_GRAPH
// dumpers.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "graph/build.h"
#include "graph/graph.h"
#include "graph/passes.h"
#include "infer/engine.h"
#include "infer/plan.h"
#include "infer/plan_io.h"
#include "models/mobilenet.h"
#include "models/resnet.h"
#include "models/vgg.h"
#include "nn/batchnorm.h"
#include "nn/depthwise.h"
#include "nn/flatten.h"
#include "nn/init.h"
#include "nn/pool.h"
#include "nn/relu.h"
#include "nn/residual.h"
#include "nn/sequential.h"
#include "quant/fake_quantizer.h"
#include "quant/quantizer.h"
#include "tensor/ops.h"
#include "tensor/rng.h"

namespace adq::infer {
namespace {

// ---------------------------------------------------------------------------
// The pre-refactor compiler, verbatim: the dynamic_cast peek-chain that
// used to live in src/infer/plan.cpp. Kept here as the golden reference
// the graph pipeline must reproduce byte for byte.
// ---------------------------------------------------------------------------

InferencePlan legacy_compile(models::QuantizableModel& model,
                             const CompileOptions& opts = {}) {
  InferencePlan plan;
  plan.model_name = model.name();
  nn::Sequential& net = model.net();

  auto peek = [&](std::size_t j) -> nn::Layer* {
    return j < net.size() ? &net.at(j) : nullptr;
  };
  auto emit_gemm = [&](GemmLayerPlan layer, OpKind kind) {
    plan.layers.push_back(std::move(layer));
    OpPlan op;
    op.kind = kind;
    op.layer = static_cast<int>(plan.layers.size()) - 1;
    plan.ops.push_back(op);
  };

  std::size_t i = 0;
  while (i < net.size()) {
    nn::Layer& L = net.at(i);
    if (auto* conv = dynamic_cast<nn::Conv2d*>(&L)) {
      auto* bn = dynamic_cast<nn::BatchNorm2d*>(peek(i + 1));
      std::size_t j = i + 1 + (bn != nullptr ? 1 : 0);
      auto* relu = dynamic_cast<nn::ReLU*>(peek(j));
      if (relu != nullptr) ++j;
      if (conv->bypassed()) {
        if (relu != nullptr) {
          OpPlan op;
          op.kind = OpKind::kReLU;
          plan.ops.push_back(op);
        }
      } else {
        emit_gemm(plan_conv(*conv, bn, relu != nullptr, opts), OpKind::kGemm);
      }
      i = j;
    } else if (auto* block = dynamic_cast<nn::ResidualBlock*>(&L)) {
      // Memory-planned residual shape: the skip is pushed unquantized (it
      // aliases the fork slot) and the Fig-2 skip quantizer follows as its
      // own kQuantizeSkip op — the old eager PushSkip(bits) split in two.
      const quant::FakeQuantizer& sq = block->skip_quantizer();
      OpPlan push;
      push.kind = OpKind::kPushSkip;
      plan.ops.push_back(push);
      if (sq.enabled() && sq.bits() < 24) {
        OpPlan quant;
        quant.kind = OpKind::kQuantizeSkip;
        quant.skip_bits = sq.bits();
        plan.ops.push_back(quant);
      }
      emit_gemm(plan_conv(block->conv1(), &block->bn1(), /*fuse_relu=*/true,
                          opts),
                OpKind::kGemm);
      emit_gemm(plan_conv(block->conv2(), &block->bn2(), /*fuse_relu=*/false,
                          opts),
                OpKind::kGemm);
      if (block->has_downsample()) {
        emit_gemm(plan_conv(*block->downsample_conv(), block->downsample_bn(),
                            /*fuse_relu=*/false, opts),
                  OpKind::kSkipGemm);
      }
      OpPlan add;
      add.kind = OpKind::kAddSkipRelu;
      add.mask_channels = block->active_out_channels();
      plan.ops.push_back(add);
      ++i;
    } else if (auto* lin = dynamic_cast<nn::Linear*>(&L)) {
      auto* relu = dynamic_cast<nn::ReLU*>(peek(i + 1));
      emit_gemm(plan_linear(*lin, relu != nullptr, opts), OpKind::kGemm);
      i += relu != nullptr ? 2 : 1;
    } else if (auto* pool = dynamic_cast<nn::MaxPool2d*>(&L)) {
      OpPlan op;
      op.kind = OpKind::kMaxPool;
      op.pool_kernel = pool->kernel();
      op.pool_stride = pool->stride();
      plan.ops.push_back(op);
      ++i;
    } else if (dynamic_cast<nn::GlobalAvgPool*>(&L) != nullptr) {
      OpPlan op;
      op.kind = OpKind::kGlobalAvgPool;
      plan.ops.push_back(op);
      ++i;
    } else if (dynamic_cast<nn::Flatten*>(&L) != nullptr) {
      OpPlan op;
      op.kind = OpKind::kFlatten;
      plan.ops.push_back(op);
      ++i;
    } else if (dynamic_cast<nn::ReLU*>(&L) != nullptr) {
      OpPlan op;
      op.kind = OpKind::kReLU;
      plan.ops.push_back(op);
      ++i;
    } else {
      throw std::invalid_argument("legacy compile: unsupported layer '" +
                                  L.name() + "'");
    }
  }
  return plan;
}

std::string to_bytes(const InferencePlan& plan) {
  std::ostringstream out(std::ios::binary);
  save_plan(plan, out);
  return out.str();
}

void expect_bit_identical_logits(const InferencePlan& a,
                                 const InferencePlan& b, const Tensor& x) {
  const IntInferenceEngine ea(a), eb(b);
  const Tensor ya = ea.forward(x);
  const Tensor yb = eb.forward(x);
  ASSERT_EQ(ya.shape(), yb.shape());
  for (std::int64_t i = 0; i < ya.numel(); ++i) {
    ASSERT_EQ(ya[i], yb[i]) << "logit " << i;
  }
}

// The legacy reference predates the static memory planner and activation
// compression, so the graph plan is diffed with the planner's annotations
// (arena footprints, planned input, slot offsets, packed storage) cleared:
// what remains is every compiled layer and the op list, byte for byte.
void expect_matches_legacy(models::QuantizableModel& model) {
  const InferencePlan legacy = legacy_compile(model);
  InferencePlan graph = compile(model);
  graph.arena_bytes = graph.arena_bytes_u8 = 0;
  graph.planned_input = PlannedInput{};
  for (OpPlan& op : graph.ops) {
    op.out_offset = -1;
    op.out_act_bits = op.out_act_qbits = 0;
  }
  EXPECT_EQ(to_bytes(graph), to_bytes(legacy));
}

// ---------------------------------------------------------------------------
// Verifier and shape inference on hand-built graphs.
// ---------------------------------------------------------------------------

// input([C, H, W]) -> relu, returning (graph, relu id). No output yet.
graph::Graph chw_graph(std::int64_t c, std::int64_t h, std::int64_t w) {
  graph::Graph g("hand");
  graph::Node in;
  in.kind = graph::NodeKind::kInput;
  in.name = "input";
  in.type = graph::ValueType::chw(c, h, w);
  g.set_input(g.add(std::move(in)));
  return g;
}

int add_node(graph::Graph& g, graph::NodeKind kind, const std::string& name,
             std::vector<int> inputs) {
  graph::Node n;
  n.kind = kind;
  n.name = name;
  n.inputs = std::move(inputs);
  return g.add(std::move(n));
}

void finish(graph::Graph& g, int tail) {
  g.set_output(add_node(g, graph::NodeKind::kOutput, "output", {tail}));
}

TEST(GraphVerifier, RejectsCycle) {
  graph::Graph g = chw_graph(4, 8, 8);
  const int a = add_node(g, graph::NodeKind::kReLU, "a", {});
  const int b = add_node(g, graph::NodeKind::kReLU, "b", {a});
  g.at(a).inputs = {b};  // a <-> b
  finish(g, b);
  try {
    graph::verify(g);
    FAIL() << "cycle accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("cycle"), std::string::npos)
        << e.what();
  }
}

TEST(GraphVerifier, RejectsWrongArity) {
  graph::Graph g = chw_graph(4, 8, 8);
  // A residual add with a single operand.
  const int add = add_node(g, graph::NodeKind::kAdd, "add", {g.input()});
  finish(g, add);
  EXPECT_THROW(graph::verify(g), std::invalid_argument);
  // The full pipeline (and standalone shape inference) must reject it with
  // the same clean error, never read past the short input list.
  EXPECT_THROW(graph::legalize(g), std::invalid_argument);
  EXPECT_THROW(graph::infer_shapes(g), std::invalid_argument);
}

TEST(GraphVerifier, RejectsDanglingEdge) {
  graph::Graph g = chw_graph(4, 8, 8);
  const int r = add_node(g, graph::NodeKind::kReLU, "r", {g.input()});
  finish(g, r);
  g.at(r).inputs = {97};  // points past the node table
  EXPECT_THROW(graph::verify(g), std::runtime_error);
}

TEST(GraphShapes, RejectsMismatchedAddOperands) {
  graph::Graph g = chw_graph(4, 8, 8);
  // Branch 1 halves the spatial extent, branch 2 keeps it — the join must
  // be rejected.
  const int pool = add_node(g, graph::NodeKind::kMaxPool, "pool", {g.input()});
  const int relu = add_node(g, graph::NodeKind::kReLU, "relu", {g.input()});
  const int add = add_node(g, graph::NodeKind::kAdd, "add", {relu, pool});
  finish(g, add);
  try {
    graph::infer_shapes(g);
    FAIL() << "mismatched add accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("disagree"), std::string::npos)
        << e.what();
  }
}

TEST(GraphShapes, InfersThroughPoolAndFlatten) {
  graph::Graph g = chw_graph(4, 8, 8);
  const int pool = add_node(g, graph::NodeKind::kMaxPool, "pool", {g.input()});
  const int flat = add_node(g, graph::NodeKind::kFlatten, "flat", {pool});
  finish(g, flat);
  graph::infer_shapes(g);
  graph::verify(g);
  EXPECT_EQ(g.at(pool).type, graph::ValueType::chw(4, 4, 4));
  EXPECT_EQ(g.at(flat).type, graph::ValueType::features(64));
  EXPECT_EQ(g.at(g.output()).type, graph::ValueType::features(64));
}

// ---------------------------------------------------------------------------
// Pass behaviour and idempotence on a real model graph.
// ---------------------------------------------------------------------------

std::unique_ptr<models::QuantizableModel> small_vgg(bool batchnorm,
                                                    std::uint64_t seed) {
  Rng rng(seed);
  models::VggConfig cfg;
  cfg.width_mult = 0.0625;
  cfg.num_classes = 10;
  cfg.use_batchnorm = batchnorm;
  auto model = models::build_vgg19(cfg, rng);
  model->set_training(false);
  const int pattern[] = {8, 4, 2};
  for (int i = 0; i < model->unit_count(); ++i) {
    if (!model->unit(i).frozen) model->unit(i).set_bits(pattern[i % 3]);
  }
  return model;
}

TEST(GraphPasses, PipelinePassesAreIdempotent) {
  auto model = small_vgg(/*batchnorm=*/true, 51);
  graph::Graph g = graph::build_from_model(*model);
  graph::infer_shapes(g);
  graph::verify(g);

  EXPECT_TRUE(graph::fold_batchnorm(g));
  EXPECT_FALSE(graph::fold_batchnorm(g));
  EXPECT_TRUE(graph::fuse_relu_epilogue(g));
  EXPECT_FALSE(graph::fuse_relu_epilogue(g));
  EXPECT_TRUE(graph::elide_quantize(g));
  EXPECT_FALSE(graph::elide_quantize(g));
  EXPECT_FALSE(graph::eliminate_dead_nodes(g));

  graph::infer_shapes(g);
  graph::verify(g);
  // The legalized graph and a legalize() of a fresh build lower to the
  // same plan — the pipeline IS those passes in that order. plan_memory is
  // deterministic, so the memory annotations agree byte for byte too.
  graph::plan_memory(g);
  EXPECT_EQ(to_bytes(lower_to_plan(g)), to_bytes(compile(*model)));
}

TEST(GraphPasses, DeadNodesAreEliminated) {
  graph::Graph g = chw_graph(4, 8, 8);
  const int r = add_node(g, graph::NodeKind::kReLU, "r", {g.input()});
  // A pool that nothing consumes.
  add_node(g, graph::NodeKind::kMaxPool, "orphan", {r});
  finish(g, r);
  EXPECT_TRUE(graph::eliminate_dead_nodes(g));
  EXPECT_FALSE(graph::eliminate_dead_nodes(g));
  EXPECT_EQ(g.live_count(), 3);  // input, relu, output
  graph::infer_shapes(g);
  graph::verify(g);
}

TEST(GraphPasses, SkipQuantizerSurvivesElision) {
  // The Fig-2 skip quantizer must stay an explicit op (the downsample conv
  // behind it re-quantizes at the same bits in training — a genuine double
  // quantization), while every per-layer input quantizer is absorbed.
  Rng rng(77);
  models::ResNetConfig cfg;
  cfg.width_mult = 0.0625;
  cfg.num_classes = 10;
  cfg.input_size = 16;
  auto model = models::build_resnet18(cfg, rng);
  model->set_training(false);
  for (int i = 0; i < model->unit_count(); ++i) {
    if (!model->unit(i).frozen) model->unit(i).set_bits(4);
  }
  graph::Graph g = graph::build_from_model(*model);
  graph::legalize(g);
  int quantize_nodes = 0;
  for (int i = 0; i < g.size(); ++i) {
    if (!g.at(i).dead && g.at(i).kind == graph::NodeKind::kQuantize) {
      ++quantize_nodes;
    }
  }
  EXPECT_EQ(quantize_nodes, 8);  // one skip quantizer per residual block
}

// ---------------------------------------------------------------------------
// Byte-identical plans vs the pre-refactor compiler.
// ---------------------------------------------------------------------------

TEST(GraphLowering, VggPlanIsByteIdenticalToLegacyCompiler) {
  for (const bool batchnorm : {true, false}) {
    auto model = small_vgg(batchnorm, 60 + batchnorm);
    expect_matches_legacy(*model);
  }
}

TEST(GraphLowering, PrunedAndRemovedVggStillMatchesLegacy) {
  auto model = small_vgg(/*batchnorm=*/true, 62);
  // Eqn-5 channel masks on a few units...
  std::vector<std::int64_t> channels = model->channel_policy();
  channels[2] = std::max<std::int64_t>(1, channels[2] / 2);
  channels[5] = std::max<std::int64_t>(1, channels[5] - 1);
  model->apply_channel_policy(channels);
  // ...and a Table II iter-2a removed unit (shape-preserving conv2).
  model->remove_unit(1);
  expect_matches_legacy(*model);
}

TEST(GraphLowering, ResNetPlanIsByteIdenticalToLegacyCompiler) {
  Rng rng(64);
  models::ResNetConfig cfg;
  cfg.width_mult = 0.0625;
  cfg.num_classes = 10;
  cfg.input_size = 16;
  auto model = models::build_resnet18(cfg, rng);
  model->set_training(false);
  for (int i = 0; i < model->unit_count(); ++i) {
    if (!model->unit(i).frozen) model->unit(i).set_bits(i % 2 == 0 ? 8 : 4);
  }
  expect_matches_legacy(*model);
}

TEST(GraphLowering, WideBitResNetWithElidedSkipQuantizerMatchesLegacy) {
  // At >= 24 bits every skip quantizer is an identity and elision removes
  // it, so an identity-skip add lands DIRECTLY on the shared fork — which
  // for the first block is the stem conv node. Lowering must recognise the
  // fork (it feeds the main branch too) rather than treating it as a
  // downsample conv; the regression duplicated the stem layer and emitted
  // an extra SkipGemm.
  Rng rng(68);
  models::ResNetConfig cfg;
  cfg.width_mult = 0.0625;
  cfg.num_classes = 10;
  cfg.input_size = 16;
  auto model = models::build_resnet18(cfg, rng);
  model->set_training(false);
  for (int i = 0; i < model->unit_count(); ++i) {
    if (!model->unit(i).frozen) model->unit(i).set_bits(24);
  }
  const InferencePlan plan = compile(*model);
  EXPECT_EQ(plan.layers.size(), 21u);  // 17 convs + 3 downsamples + fc
  int skip_gemms = 0;
  for (const OpPlan& op : plan.ops) skip_gemms += op.kind == OpKind::kSkipGemm;
  EXPECT_EQ(skip_gemms, 3);
  expect_matches_legacy(*model);
}

TEST(GraphLowering, StandaloneQuantizeLowersToExplicitOp) {
  graph::Graph g = chw_graph(3, 6, 6);
  graph::Node q;
  q.kind = graph::NodeKind::kQuantize;
  q.name = "q";
  q.bits = 5;
  q.inputs = {g.input()};
  const int qid = g.add(std::move(q));
  finish(g, qid);
  graph::legalize(g);
  graph::plan_memory(g);

  const InferencePlan plan = lower_to_plan(g);
  ASSERT_EQ(plan.ops.size(), 1u);
  EXPECT_EQ(static_cast<int>(plan.ops[0].kind),
            static_cast<int>(OpKind::kQuantize));
  EXPECT_EQ(plan.ops[0].skip_bits, 5);

  Rng rng(65);
  Tensor x(Shape{2, 3, 6, 6});
  rng.fill_normal(x, 0.0f, 1.0f);
  const IntInferenceEngine engine(plan);
  const Tensor got = engine.forward(x);
  const Tensor want = quant::fake_quantize(x, 5);
  ASSERT_EQ(got.shape(), want.shape());
  for (std::int64_t i = 0; i < got.numel(); ++i) ASSERT_EQ(got[i], want[i]);
}

TEST(GraphLowering, UnplannedGraphIsRejected) {
  // The engine executes only out of a planned arena, so lowering a graph
  // plan_memory has not annotated is a caller bug, not a plan.
  graph::Graph g = chw_graph(3, 6, 6);
  finish(g, add_node(g, graph::NodeKind::kReLU, "r", {g.input()}));
  graph::legalize(g);
  try {
    lower_to_plan(g);
    FAIL() << "unplanned graph lowered";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("plan_memory"), std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// Depthwise-separable path — the topology the old compiler rejected.
// ---------------------------------------------------------------------------

float parity_tol(const Tensor& ref) {
  const float mag =
      std::max(std::abs(min_value(ref)), std::abs(max_value(ref)));
  return 1e-4f * std::max(mag, 1.0f);
}

float max_abs_diff(const Tensor& a, const Tensor& b) {
  EXPECT_EQ(a.shape(), b.shape());
  float worst = 0.0f;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

TEST(GraphDepthwise, IntegerParityPerBitwidth) {
  for (int bits : {8, 4, 2}) {
    Rng rng(300 + bits);
    nn::DepthwiseConv2d conv(6, 3, 1, 1, /*use_bias=*/true, "dw");
    nn::init_depthwise(conv, rng);
    rng.fill_uniform(conv.bias()->value, -0.3f, 0.3f);
    conv.set_bits(bits);
    conv.set_training(false);

    Tensor x(Shape{3, 6, 9, 9});
    rng.fill_normal(x, 0.1f, 1.0f);
    x = relu(x);  // post-ReLU range: exact zero on the grid (as in-network)
    const Tensor ref = conv.forward(x);

    const GemmLayerPlan l = plan_depthwise(conv, nullptr, /*fuse_relu=*/false);
    ASSERT_EQ(l.path, ExecPath::kInteger) << "bits " << bits;
    ASSERT_TRUE(l.is_depthwise);
    const Tensor out = run_gemm_layer(l, x);
    EXPECT_LE(max_abs_diff(out, ref), parity_tol(ref)) << "bits " << bits;
  }
}

TEST(GraphDepthwise, ParityWithBatchNormFoldReluAndStride) {
  Rng rng(310);
  nn::DepthwiseConv2d conv(5, 3, 2, 1, /*use_bias=*/false, "dw");
  nn::init_depthwise(conv, rng);
  conv.set_bits(8);
  nn::BatchNorm2d bn(5);
  rng.fill_uniform(bn.gamma().value, 0.5f, 1.5f);
  rng.fill_uniform(bn.beta().value, -0.2f, 0.2f);
  bn.set_training(true);
  for (int i = 0; i < 3; ++i) {
    Tensor warm(Shape{4, 5, 8, 8});
    rng.fill_normal(warm, 0.4f, 1.7f);
    bn.forward(warm);
  }
  conv.set_training(false);
  bn.set_training(false);

  Tensor x(Shape{2, 5, 8, 8});
  rng.fill_normal(x, 0.1f, 1.0f);
  x = relu(x);
  Tensor ref = relu(bn.forward(conv.forward(x)));

  const GemmLayerPlan l = plan_depthwise(conv, &bn, /*fuse_relu=*/true);
  const Tensor out = run_gemm_layer(l, x);
  EXPECT_LE(max_abs_diff(out, ref), parity_tol(ref));
}

TEST(GraphDepthwise, PrunedChannelsAreZero) {
  Rng rng(320);
  nn::DepthwiseConv2d conv(8, 3, 1, 1, /*use_bias=*/true, "dw");
  nn::init_depthwise(conv, rng);
  conv.set_bits(8);
  conv.set_active_out_channels(5);
  conv.set_training(false);

  Tensor x(Shape{2, 8, 6, 6});
  rng.fill_normal(x, 0.1f, 1.0f);
  x = relu(x);
  const Tensor ref = conv.forward(x);
  const GemmLayerPlan l = plan_depthwise(conv, nullptr, /*fuse_relu=*/false);
  const Tensor out = run_gemm_layer(l, x);
  EXPECT_LE(max_abs_diff(out, ref), parity_tol(ref));
  for (std::int64_t b = 0; b < 2; ++b) {
    for (std::int64_t c = 5; c < 8; ++c) {
      EXPECT_EQ(out.at(b, c, 3, 3), 0.0f);
    }
  }
}

double prediction_agreement(const std::vector<std::int64_t>& a,
                            const std::vector<std::int64_t>& b) {
  EXPECT_EQ(a.size(), b.size());
  std::size_t same = 0;
  for (std::size_t i = 0; i < a.size(); ++i) same += a[i] == b[i];
  return a.empty() ? 0.0
                   : static_cast<double>(same) / static_cast<double>(a.size());
}

TEST(GraphDepthwise, MobileNetCompilesServesAndRoundTrips) {
  Rng rng(330);
  models::MobileNetConfig cfg;
  cfg.width_mult = 0.25;
  cfg.num_classes = 10;
  auto model = models::build_mobilenet_small(cfg, rng);
  ASSERT_EQ(model->unit_count(), models::kMobileNetSmallUnits);
  model->set_training(false);
  const int pattern[] = {8, 4, 8, 2};
  for (int i = 0; i < model->unit_count(); ++i) {
    if (!model->unit(i).frozen) model->unit(i).set_bits(pattern[i % 4]);
  }

  Tensor x(Shape{24, 3, 32, 32});
  rng.fill_normal(x, 0.0f, 1.0f);
  const Tensor ref_logits = model->forward(x);

  const InferencePlan plan = compile(*model);
  int depthwise_layers = 0;
  for (const GemmLayerPlan& l : plan.layers) depthwise_layers += l.is_depthwise;
  EXPECT_EQ(depthwise_layers, 5);
  // 10 of 12 units quantize (frozen stem/fc run in float); mixed 8/4/2
  // grids keep agreement well above chance but below the int8-only bar
  // (same rationale as InferEngine.VggMixedPrecisionAgreement).
  EXPECT_EQ(plan.integer_layer_count(), 10);

  const IntInferenceEngine engine(plan);
  EXPECT_GE(prediction_agreement(engine.predict(x), argmax_rows(ref_logits)),
            0.7);

  // v2 round trip: depthwise layers serialize and execute identically.
  const std::string bytes = to_bytes(plan);
  std::istringstream in(bytes, std::ios::binary);
  const InferencePlan loaded = load_plan(in);
  EXPECT_EQ(to_bytes(loaded), bytes);
  expect_bit_identical_logits(plan, loaded, x);
}

TEST(GraphDepthwise, MobileNetUniformInt8MatchesFakeQuant) {
  Rng rng(331);
  models::MobileNetConfig cfg;
  cfg.width_mult = 0.25;
  cfg.num_classes = 10;
  auto model = models::build_mobilenet_small(cfg, rng);
  model->set_training(false);
  for (int i = 0; i < model->unit_count(); ++i) {
    if (!model->unit(i).frozen) model->unit(i).set_bits(8);
  }
  Tensor x(Shape{32, 3, 32, 32});
  rng.fill_normal(x, 0.0f, 1.0f);
  const Tensor ref_logits = model->forward(x);
  const IntInferenceEngine engine(compile(*model));
  EXPECT_GE(prediction_agreement(engine.predict(x), argmax_rows(ref_logits)),
            0.95);
}

// ---------------------------------------------------------------------------
// Dot dumper and the ADQ_DUMP_GRAPH hook.
// ---------------------------------------------------------------------------

TEST(GraphDot, RendersNodesAndEdges) {
  auto model = small_vgg(/*batchnorm=*/true, 70);
  graph::Graph g = graph::build_from_model(*model);
  graph::legalize(g);
  const std::string dot = to_dot(g);
  EXPECT_NE(dot.find("digraph \"vgg19\""), std::string::npos);
  EXPECT_NE(dot.find("conv conv1"), std::string::npos);
  EXPECT_NE(dot.find("+relu"), std::string::npos);  // fused epilogue shown
  EXPECT_NE(dot.find("->"), std::string::npos);
}

TEST(GraphDot, DumpEnvWritesEveryStage) {
  const std::string dir = testing::TempDir() + "adq_dump_graph_test";
  std::remove((dir + "/vgg19_00_built.dot").c_str());
  ASSERT_EQ(0, std::system(("mkdir -p '" + dir + "'").c_str()));
  setenv("ADQ_DUMP_GRAPH", dir.c_str(), 1);
  auto model = small_vgg(/*batchnorm=*/true, 71);
  compile(*model);
  unsetenv("ADQ_DUMP_GRAPH");

  for (const char* stage :
       {"00_built", "01_verified", "02_bn_fold", "03_fuse_relu",
        "04_elide_quantize", "05_dce", "06_legal", "07_memplan"}) {
    const std::string path = dir + "/vgg19_" + stage + ".dot";
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::string first_line;
    std::getline(in, first_line);
    EXPECT_NE(first_line.find("digraph"), std::string::npos) << path;
  }
}

}  // namespace
}  // namespace adq::infer
