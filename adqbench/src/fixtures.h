// The benchmark's models, plans and seeded inputs.
//
// Three served plans, all compiled from fixed weights (the weights are part
// of the program under test; only the inputs derive from --seed):
//   vgg19_mixed     VGG19 width 0.125, paper Table II(a) bits clipped to 8
//   resnet18_mixed  ResNet18 width 0.125, Table II(b) iteration-2 bits
//                   clipped to 8 (CIFAR-100 head)
//   mobilenet_int4  MobileNet-small width 0.25, every quantizable unit int4
// The first and last units stay at their frozen 16 bits (float path), as
// Algorithm 1 leaves them.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "infer/engine.h"
#include "infer/plan.h"
#include "models/model.h"
#include "tensor/tensor.h"

namespace adqbench {

enum class ModelId { kVgg19Mixed, kResNet18Mixed, kMobileNetInt4 };
inline constexpr ModelId kAllModels[] = {
    ModelId::kVgg19Mixed, ModelId::kResNet18Mixed, ModelId::kMobileNetInt4};

/// Stable metric-name key of a model ("vgg19_mixed", ...).
const char* model_key(ModelId id);

/// A model compiled in memory, with its analytical energy per image.
struct CompiledModel {
  std::string key;
  adq::infer::InferencePlan plan;
  double mac_uj_per_img = 0.0;  // paper E_MAC|k term
  double mem_uj_per_img = 0.0;  // paper E_Mem|k term
  double compile_ms = 0.0;      // infer::compile alone
};

/// Applies the paper's Table II(a) VGG19 bits (clipped to 8) to every
/// non-frozen unit of a VGG19.
void apply_paper_vgg_bits(adq::models::QuantizableModel& model);

/// Builds the model from its fixed weights, applies its bit policy and
/// compiles it (graph build + legalization + lowering).
CompiledModel compile_model(ModelId id);

/// A compiled plan after the .adqplan round trip, with its engine.
struct LoadedModel {
  std::string key;
  std::string path;  // the .adqplan file
  std::uint64_t fingerprint = 0;  // of the loaded plan
  bool fingerprint_matches = false;  // loaded == compiled
  double mac_uj_per_img = 0.0;
  double mem_uj_per_img = 0.0;
  double load_ms = 0.0;         // load_plan
  double engine_ctor_ms = 0.0;  // IntInferenceEngine construction
  std::unique_ptr<adq::infer::IntInferenceEngine> engine;
};

/// save_plan to `dir`, load_plan back, compare fingerprints, construct
/// the engine. Spans: infer.save_plan, infer.load_plan, infer.engine_ctor.
LoadedModel save_and_load(const CompiledModel& compiled,
                          const std::string& dir);

/// Seeded synthetic CIFAR-like images [count, 3, 32, 32].
adq::Tensor make_images(std::uint64_t seed, std::int64_t count);

/// Rows [begin, begin + count) of a batch as a new batch tensor.
adq::Tensor slice_batch(const adq::Tensor& batch, std::int64_t begin,
                        std::int64_t count);

/// Every sample of a batch as its own [C, H, W] tensor.
std::vector<adq::Tensor> split_samples(const adq::Tensor& batch);

bool bit_equal(const adq::Tensor& a, const adq::Tensor& b);

/// Index of the first maximum of x[0..n).
std::int64_t argmax(const float* x, std::int64_t n);

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

using Clock = std::chrono::steady_clock;

/// Time elapsed on the steady clock since `t0`.
double ms_since(Clock::time_point t0);
double seconds_since(Clock::time_point t0);

}  // namespace adqbench
