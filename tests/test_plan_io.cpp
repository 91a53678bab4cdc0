// .adqplan serialization tests: byte-stable round-trips that reproduce
// predictions exactly for int8/int4/int2 mixed plans (VGG19 and ResNet18,
// so the residual ops serialize too), plus rejection of bad magic, every
// format version but the current one, plans without a memory plan,
// truncation, and corrupt payloads with clear errors.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "graph/build.h"
#include "graph/passes.h"
#include "infer/engine.h"
#include "infer/plan.h"
#include "infer/plan_io.h"
#include "models/mobilenet.h"
#include "models/resnet.h"
#include "models/vgg.h"
#include "tensor/ops.h"
#include "tensor/rng.h"

namespace adq::infer {
namespace {

std::string to_bytes(const InferencePlan& plan) {
  std::ostringstream out(std::ios::binary);
  save_plan(plan, out);
  return out.str();
}

InferencePlan from_bytes(const std::string& bytes) {
  std::istringstream in(bytes, std::ios::binary);
  return load_plan(in);
}

std::unique_ptr<models::QuantizableModel> small_vgg(
    const std::vector<int>& bit_pattern, std::uint64_t seed = 21) {
  Rng rng(seed);
  models::VggConfig cfg;
  cfg.width_mult = 0.0625;
  cfg.num_classes = 10;
  auto model = models::build_vgg19(cfg, rng);
  model->set_training(false);
  for (int i = 0; i < model->unit_count(); ++i) {
    if (!model->unit(i).frozen) {
      model->unit(i).set_bits(
          bit_pattern[static_cast<std::size_t>(i) % bit_pattern.size()]);
    }
  }
  return model;
}

void expect_identical_forward(const InferencePlan& a, const InferencePlan& b,
                              const Tensor& x) {
  const IntInferenceEngine ea(a), eb(b);
  const Tensor ya = ea.forward(x);
  const Tensor yb = eb.forward(x);
  ASSERT_EQ(ya.shape(), yb.shape());
  for (std::int64_t i = 0; i < ya.numel(); ++i) {
    ASSERT_EQ(ya[i], yb[i]) << "logit " << i;
  }
}

TEST(PlanIo, RoundTripIsByteStableAndPredictionIdentical) {
  // Mixed int8/int4/int2 cells plus the float frozen ends — every storage
  // form the format has.
  auto model = small_vgg({8, 4, 2});
  const InferencePlan plan = compile(*model);

  const std::string bytes = to_bytes(plan);
  const InferencePlan loaded = from_bytes(bytes);

  EXPECT_EQ(loaded.model_name, plan.model_name);
  ASSERT_EQ(loaded.layers.size(), plan.layers.size());
  ASSERT_EQ(loaded.ops.size(), plan.ops.size());
  EXPECT_EQ(loaded.weight_bytes(), plan.weight_bytes());
  EXPECT_EQ(loaded.integer_layer_count(), plan.integer_layer_count());

  // save(load(save(p))) must be byte-identical — the format has no
  // nondeterminism (no timestamps, no map iteration, no padding noise).
  EXPECT_EQ(to_bytes(loaded), bytes);

  Rng rng(31);
  Tensor x(Shape{8, 3, 32, 32});
  rng.fill_normal(x, 0.0f, 1.0f);
  expect_identical_forward(plan, loaded, x);
}

TEST(PlanIo, FingerprintIsStableAcrossRoundTripsAndRecompiles) {
  auto model = small_vgg({8, 4, 2});
  const InferencePlan plan = compile(*model);
  const std::uint64_t fp = plan_fingerprint(plan);
  EXPECT_NE(fp, 0u);
  // Round-tripping must not move the fingerprint (it hashes the canonical
  // serialized bytes, and the format is byte-stable).
  EXPECT_EQ(plan_fingerprint(from_bytes(to_bytes(plan))), fp);
  // Recompiling the same model is byte-identical, hence fingerprint-equal.
  EXPECT_EQ(plan_fingerprint(compile(*small_vgg({8, 4, 2}))), fp);
}

TEST(PlanIo, FingerprintSeparatesDifferentPlans) {
  const std::uint64_t base = plan_fingerprint(compile(*small_vgg({8, 4, 2})));
  // A different bit allocation of the same weights is a different plan.
  EXPECT_NE(plan_fingerprint(compile(*small_vgg({8}))), base);
  // Same architecture and bits, different weights.
  EXPECT_NE(plan_fingerprint(compile(*small_vgg({8, 4, 2}, /*seed=*/22))),
            base);
}

TEST(PlanIo, PerBitwidthRoundTripPreservesCells) {
  for (int bits : {8, 4, 2}) {
    auto model = small_vgg({bits});
    const InferencePlan plan = compile(*model);
    const InferencePlan loaded = from_bytes(to_bytes(plan));
    for (std::size_t i = 0; i < plan.layers.size(); ++i) {
      EXPECT_EQ(loaded.layers[i].cell_bits, plan.layers[i].cell_bits);
      EXPECT_EQ(loaded.layers[i].weight_codes, plan.layers[i].weight_codes);
      EXPECT_EQ(loaded.layers[i].bits, plan.layers[i].bits);
    }
    Rng rng(40 + static_cast<std::uint64_t>(bits));
    Tensor x(Shape{4, 3, 32, 32});
    rng.fill_normal(x, 0.0f, 1.0f);
    expect_identical_forward(plan, loaded, x);
  }
}

TEST(PlanIo, ResNetRoundTripSerializesResidualOps) {
  Rng rng(22);
  models::ResNetConfig cfg;
  cfg.width_mult = 0.0625;
  cfg.num_classes = 10;
  cfg.input_size = 16;
  auto model = models::build_resnet18(cfg, rng);
  model->set_training(false);
  for (int i = 0; i < model->unit_count(); ++i) {
    if (!model->unit(i).frozen) model->unit(i).set_bits(i % 2 == 0 ? 8 : 4);
  }
  const InferencePlan plan = compile(*model);
  const InferencePlan loaded = from_bytes(to_bytes(plan));

  // The residual graph ops (push/skip-gemm/add) survive verbatim.
  ASSERT_EQ(loaded.ops.size(), plan.ops.size());
  int skips = 0;
  for (std::size_t i = 0; i < plan.ops.size(); ++i) {
    EXPECT_EQ(static_cast<int>(loaded.ops[i].kind),
              static_cast<int>(plan.ops[i].kind));
    EXPECT_EQ(loaded.ops[i].layer, plan.ops[i].layer);
    EXPECT_EQ(loaded.ops[i].skip_bits, plan.ops[i].skip_bits);
    EXPECT_EQ(loaded.ops[i].mask_channels, plan.ops[i].mask_channels);
    skips += plan.ops[i].kind == OpKind::kPushSkip;
  }
  EXPECT_EQ(skips, 8);  // ResNet18: eight residual blocks

  Tensor x(Shape{4, 3, 16, 16});
  rng.fill_normal(x, 0.0f, 1.0f);
  expect_identical_forward(plan, loaded, x);
}

TEST(PlanIo, V3RoundTripPreservesMemoryPlan) {
  // The memory plan — arena footprint, planned input shape, per-op slot
  // offsets, skip-quantize ops — survives a round trip byte for byte and
  // the loaded plan still executes on the arena path.
  Rng rng(24);
  models::ResNetConfig cfg;
  cfg.width_mult = 0.0625;
  cfg.num_classes = 10;
  cfg.input_size = 16;
  auto model = models::build_resnet18(cfg, rng);
  model->set_training(false);
  for (int i = 0; i < model->unit_count(); ++i) {
    if (!model->unit(i).frozen) model->unit(i).set_bits(4);
  }
  const InferencePlan plan = compile(*model);
  ASSERT_GT(plan.arena_bytes, 0);
  ASSERT_EQ(plan.planned_input.rank, 3);

  const std::string bytes = to_bytes(plan);
  const InferencePlan loaded = from_bytes(bytes);
  EXPECT_EQ(to_bytes(loaded), bytes);
  EXPECT_EQ(loaded.arena_bytes, plan.arena_bytes);
  EXPECT_EQ(loaded.planned_input.channels, 3);
  int quantize_skips = 0, slotted = 0;
  ASSERT_EQ(loaded.ops.size(), plan.ops.size());
  for (std::size_t i = 0; i < plan.ops.size(); ++i) {
    EXPECT_EQ(loaded.ops[i].out_offset, plan.ops[i].out_offset);
    quantize_skips += loaded.ops[i].kind == OpKind::kQuantizeSkip;
    slotted += loaded.ops[i].out_offset >= 0;
  }
  EXPECT_EQ(quantize_skips, 8);  // one Fig-2 quantizer per block
  EXPECT_GT(slotted, 0);

  Tensor x(Shape{3, 3, 16, 16});
  rng.fill_normal(x, 0.0f, 1.0f);
  const IntInferenceEngine engine(loaded);
  EXPECT_TRUE(engine.uses_arena(x));
  expect_identical_forward(plan, loaded, x);
}

TEST(PlanIo, RejectsArenaSlotOutsideTheArena) {
  auto model = small_vgg({8});
  InferencePlan plan = compile(*model);
  ASSERT_GT(plan.arena_bytes, 0);
  for (OpPlan& op : plan.ops) {
    if (op.out_offset >= 0) {
      op.out_offset = plan.arena_bytes + 64;  // past the declared footprint
      break;
    }
  }
  try {
    from_bytes(to_bytes(plan));
    FAIL() << "out-of-arena slot accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("arena"), std::string::npos)
        << e.what();
  }
}

TEST(PlanIo, RejectsMisalignedArenaSlot) {
  // Per-sample offsets scale by the batch size at run time; only 64-byte
  // alignment keeps every scaled offset aligned and float-indexable.
  auto model = small_vgg({8});
  InferencePlan plan = compile(*model);
  for (OpPlan& op : plan.ops) {
    if (op.out_offset >= 0) {
      op.out_offset += 4;
      break;
    }
  }
  try {
    from_bytes(to_bytes(plan));
    FAIL() << "misaligned slot accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("arena"), std::string::npos)
        << e.what();
  }
}

TEST(PlanIo, FileRoundTrip) {
  auto model = small_vgg({8, 4});
  const InferencePlan plan = compile(*model);
  const std::string path =
      testing::TempDir() + "/test_plan_io_roundtrip.adqplan";
  save_plan(plan, path);
  const InferencePlan loaded = load_plan(path);
  EXPECT_EQ(to_bytes(loaded), to_bytes(plan));
  std::remove(path.c_str());
}

TEST(PlanIo, WritesCurrentFormatVersionInHeader) {
  auto model = small_vgg({8});
  const std::string bytes = to_bytes(compile(*model));
  std::uint32_t version;
  std::memcpy(&version, bytes.data() + 8, sizeof(version));
  EXPECT_EQ(version, kPlanFormatVersion);
  EXPECT_EQ(kPlanFormatVersion, 4u);
}

TEST(PlanIo, DepthwiseRoundTripIsByteStable) {
  Rng rng(57);
  models::MobileNetConfig cfg;
  cfg.width_mult = 0.25;
  cfg.num_classes = 10;
  auto model = models::build_mobilenet_small(cfg, rng);
  model->set_training(false);
  for (int i = 0; i < model->unit_count(); ++i) {
    if (!model->unit(i).frozen) model->unit(i).set_bits(i % 2 == 0 ? 8 : 4);
  }
  const InferencePlan plan = compile(*model);
  const std::string bytes = to_bytes(plan);
  const InferencePlan loaded = from_bytes(bytes);
  EXPECT_EQ(to_bytes(loaded), bytes);
  int depthwise = 0;
  for (const GemmLayerPlan& l : loaded.layers) depthwise += l.is_depthwise;
  EXPECT_EQ(depthwise, 5);

  Tensor x(Shape{4, 3, 32, 32});
  rng.fill_normal(x, 0.0f, 1.0f);
  expect_identical_forward(plan, loaded, x);
}

TEST(PlanIo, RejectsBadMagic) {
  auto model = small_vgg({8});
  std::string bytes = to_bytes(compile(*model));
  bytes[0] = 'X';
  try {
    from_bytes(bytes);
    FAIL() << "bad magic accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos)
        << e.what();
  }
}

std::string with_header_version(std::string bytes, std::uint32_t version) {
  bytes.replace(8, 4, reinterpret_cast<const char*>(&version), 4);
  return bytes;
}

TEST(PlanIo, RejectsEveryOtherFormatVersion) {
  // The checksum covers only the payload, so a relabelled header still
  // passes it: the version check alone must refuse the file, naming the
  // version it found and the one this build reads.
  const std::string bytes = to_bytes(compile(*small_vgg({8, 4})));
  for (const std::uint32_t version : {1u, 2u, 3u, 5u}) {
    try {
      from_bytes(with_header_version(bytes, version));
      FAIL() << "format version " << version << " accepted";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("version " + std::to_string(version)),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("reads only 4"), std::string::npos) << what;
      EXPECT_NE(what.find("recompile"), std::string::npos) << what;
    }
  }
}

TEST(PlanIo, RejectsPlanWithoutMemoryPlan) {
  // save_plan recomputes the checksum, so only the loader's own check can
  // refuse a plan the arena executor cannot run.
  InferencePlan plan = compile(*small_vgg({8}));
  plan.arena_bytes = 0;
  try {
    from_bytes(to_bytes(plan));
    FAIL() << "plan without a memory plan accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("no memory plan"), std::string::npos)
        << e.what();
  }
}

TEST(PlanIo, RejectsPushSkipCarryingSkipBits) {
  // Skip quantization is its own kQuantizeSkip op; a push that claims a
  // bit-width would otherwise be executed as a plain alias.
  Rng rng(26);
  models::ResNetConfig cfg;
  cfg.width_mult = 0.0625;
  cfg.num_classes = 10;
  cfg.input_size = 16;
  auto model = models::build_resnet18(cfg, rng);
  model->set_training(false);
  InferencePlan plan = compile(*model);
  for (OpPlan& op : plan.ops) {
    if (op.kind == OpKind::kPushSkip) {
      op.skip_bits = 8;
      break;
    }
  }
  try {
    from_bytes(to_bytes(plan));
    FAIL() << "push-skip with skip bits accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("push-skip"), std::string::npos)
        << e.what();
  }
}

TEST(PlanIo, RejectsNewerVersion) {
  auto model = small_vgg({8});
  const std::string bytes = with_header_version(to_bytes(compile(*model)), 999);
  try {
    from_bytes(bytes);
    FAIL() << "future version accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
        << e.what();
  }
}

TEST(PlanIo, RejectsTruncatedFile) {
  auto model = small_vgg({8});
  const std::string bytes = to_bytes(compile(*model));
  // Chopping anywhere — inside the payload or the checksum — must fail
  // loudly, never return a half-parsed plan.
  for (const std::size_t keep :
       {bytes.size() - 1, bytes.size() / 2, std::size_t{20}, std::size_t{3}}) {
    EXPECT_THROW(from_bytes(bytes.substr(0, keep)), std::runtime_error)
        << "kept " << keep << " of " << bytes.size();
  }
}

TEST(PlanIo, RejectsCorruptPayload) {
  auto model = small_vgg({8});
  std::string bytes = to_bytes(compile(*model));
  bytes[bytes.size() / 2] ^= 0x40;  // flip one payload bit
  try {
    from_bytes(bytes);
    FAIL() << "corrupt payload accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos)
        << e.what();
  }
}

TEST(PlanIo, RejectsWideBitsOnIntegerPath) {
  // compile() clamps the integer path to <= 8 bits; a file claiming an
  // integer layer at 16 bits would silently wrap activation codes, so the
  // loader must reject it even though every size field is consistent.
  auto model = small_vgg({8});
  InferencePlan plan = compile(*model);
  for (GemmLayerPlan& l : plan.layers) {
    if (l.path == ExecPath::kInteger) {
      l.bits = 16;
      break;
    }
  }
  try {
    from_bytes(to_bytes(plan));
    FAIL() << "16-bit integer-path layer accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bits"), std::string::npos)
        << e.what();
  }
}

TEST(PlanIo, MissingFileError) {
  EXPECT_THROW(load_plan("/nonexistent/dir/model.adqplan"),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// v4 — compressed activation slots.
// ---------------------------------------------------------------------------

InferencePlan packed_plan() {
  auto model = small_vgg({8, 4, 2});
  return compile(*model);
}

TEST(PlanIo, V4RoundTripPreservesPackedActivationSlots) {
  const InferencePlan plan = packed_plan();
  int packed = 0;
  for (const OpPlan& op : plan.ops) packed += op.out_act_bits > 0;
  ASSERT_GT(packed, 0);  // the fixture really compresses something
  ASSERT_GT(plan.arena_bytes_u8, plan.arena_bytes);

  const std::string bytes = to_bytes(plan);
  const InferencePlan loaded = from_bytes(bytes);
  EXPECT_EQ(to_bytes(loaded), bytes);
  EXPECT_EQ(loaded.arena_bytes_u8, plan.arena_bytes_u8);
  ASSERT_EQ(loaded.ops.size(), plan.ops.size());
  for (std::size_t i = 0; i < plan.ops.size(); ++i) {
    EXPECT_EQ(loaded.ops[i].out_act_bits, plan.ops[i].out_act_bits) << i;
    EXPECT_EQ(loaded.ops[i].out_act_qbits, plan.ops[i].out_act_qbits) << i;
  }

  Rng rng(61);
  Tensor x(Shape{4, 3, 32, 32});
  rng.fill_normal(x, 0.0f, 1.0f);
  expect_identical_forward(plan, loaded, x);
}

TEST(PlanIo, FingerprintSeparatesPackedFromFloatSlotPlans) {
  // Same model, same weights — but the packed plan stores different bytes
  // in its activation slots, so the fingerprints must differ.
  const std::uint64_t packed = plan_fingerprint(packed_plan());
  auto model = small_vgg({8, 4, 2});
  graph::Graph g = graph::build_from_model(*model);
  graph::legalize(g);
  graph::ActStorageOptions float_slots;
  float_slots.mode = graph::ActStorageOptions::Mode::kOff;
  graph::plan_memory(g, float_slots);
  EXPECT_NE(plan_fingerprint(lower_to_plan(g)), packed);
}

TEST(PlanIo, RejectsInvalidPackedCellWidth) {
  InferencePlan plan = packed_plan();
  for (OpPlan& op : plan.ops) {
    if (op.out_act_bits > 0) {
      op.out_act_bits = 3;  // not a {1, 2, 4, 8} cell
      break;
    }
  }
  try {
    from_bytes(to_bytes(plan));
    FAIL() << "3-bit cell accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("cell width"), std::string::npos)
        << e.what();
  }
}

TEST(PlanIo, RejectsCodeGridWiderThanItsCell) {
  InferencePlan plan = packed_plan();
  bool tampered = false;
  for (OpPlan& op : plan.ops) {
    if (op.out_act_bits == 4 && op.out_act_qbits == 4) {
      op.out_act_qbits = 8;  // 8-bit codes cannot live in 4-bit cells
      tampered = true;
      break;
    }
  }
  ASSERT_TRUE(tampered);
  try {
    from_bytes(to_bytes(plan));
    FAIL() << "8-bit grid in a 4-bit cell accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("cell width"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace adq::infer
