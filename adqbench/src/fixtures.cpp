#include "fixtures.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include "bench/common.h"
#include "data/synthetic.h"
#include "energy/analytical.h"
#include "infer/plan_io.h"
#include "models/mobilenet.h"
#include "models/resnet.h"
#include "models/vgg.h"
#include "tensor/ops.h"
#include "tensor/rng.h"
#include "trace.h"

namespace adqbench {

using adq::Tensor;

namespace {

// Applies `bits` (clipped to the 8-bit integer ceiling) to every
// non-frozen unit; frozen units keep their policy entry.
void apply_bits(adq::models::QuantizableModel& model,
                const std::vector<int>& bits) {
  adq::quant::BitWidthPolicy policy = model.bit_policy();
  for (int i = 0; i < model.unit_count(); ++i) {
    if (model.unit(i).frozen) continue;
    const int b = bits[static_cast<std::size_t>(i) % bits.size()];
    policy.set(i, std::min(b, 8));
  }
  model.apply_bit_policy(policy);
}

std::unique_ptr<adq::models::QuantizableModel> build(ModelId id) {
  adq::Rng rng(42);
  switch (id) {
    case ModelId::kVgg19Mixed: {
      adq::models::VggConfig cfg;
      cfg.width_mult = 0.125;
      cfg.num_classes = 10;
      auto m = adq::models::build_vgg19(cfg, rng);
      apply_bits(*m, adq::bench::kPaperVggC10Bits);
      return m;
    }
    case ModelId::kResNet18Mixed: {
      adq::models::ResNetConfig cfg;
      cfg.width_mult = 0.125;
      cfg.num_classes = 100;
      auto m = adq::models::build_resnet18(cfg, rng);
      apply_bits(*m, adq::bench::kPaperResNetC100BitsIter2);
      return m;
    }
    case ModelId::kMobileNetInt4: {
      adq::models::MobileNetConfig cfg;
      cfg.width_mult = 0.25;
      cfg.num_classes = 10;
      auto m = adq::models::build_mobilenet_small(cfg, rng);
      apply_bits(*m, {4});
      return m;
    }
  }
  throw std::logic_error("unknown model id");
}

}  // namespace

void apply_paper_vgg_bits(adq::models::QuantizableModel& model) {
  apply_bits(model, adq::bench::kPaperVggC10Bits);
}

const char* model_key(ModelId id) {
  switch (id) {
    case ModelId::kVgg19Mixed: return "vgg19_mixed";
    case ModelId::kResNet18Mixed: return "resnet18_mixed";
    case ModelId::kMobileNetInt4: return "mobilenet_int4";
  }
  return "unknown";
}

CompiledModel compile_model(ModelId id) {
  auto model = build(id);
  model->set_training(false);
  CompiledModel out;
  out.key = model_key(id);
  const auto t0 = Clock::now();
  {
    ScopedSpan span("graph.compile", "graph");
    out.plan = adq::infer::compile(*model);
  }
  out.compile_ms = ms_since(t0);
  const adq::energy::EnergyReport e =
      adq::energy::analytical_energy(model->spec());
  out.mac_uj_per_img = e.total_mac_pj * 1e-6;
  out.mem_uj_per_img = e.total_mem_pj * 1e-6;
  return out;
}

LoadedModel save_and_load(const CompiledModel& compiled,
                          const std::string& dir) {
  LoadedModel out;
  out.key = compiled.key;
  out.path = dir + "/" + compiled.key + ".adqplan";
  out.mac_uj_per_img = compiled.mac_uj_per_img;
  out.mem_uj_per_img = compiled.mem_uj_per_img;
  {
    ScopedSpan span("infer.save_plan", "infer");
    adq::infer::save_plan(compiled.plan, out.path);
  }
  adq::infer::InferencePlan loaded;
  auto t0 = Clock::now();
  {
    ScopedSpan span("infer.load_plan", "infer");
    loaded = adq::infer::load_plan(out.path);
  }
  out.load_ms = ms_since(t0);
  out.fingerprint = adq::infer::plan_fingerprint(loaded);
  out.fingerprint_matches =
      out.fingerprint == adq::infer::plan_fingerprint(compiled.plan);
  t0 = Clock::now();
  {
    ScopedSpan span("infer.engine_ctor", "infer");
    out.engine =
        std::make_unique<adq::infer::IntInferenceEngine>(std::move(loaded));
  }
  out.engine_ctor_ms = ms_since(t0);
  return out;
}

Tensor make_images(std::uint64_t seed, std::int64_t count) {
  adq::data::SyntheticSpec spec = adq::data::synthetic_cifar10_spec();
  spec.train_count = 1;
  spec.test_count = count;
  spec.seed = seed;
  return adq::data::make_synthetic(spec).test.images();
}

Tensor slice_batch(const Tensor& batch, std::int64_t begin,
                   std::int64_t count) {
  Tensor out(batch.shape().tail().prepended(count));
  const std::int64_t per_sample = out.numel() / count;
  std::memcpy(out.data(), batch.data() + begin * per_sample,
              static_cast<std::size_t>(out.numel()) * sizeof(float));
  return out;
}

std::vector<Tensor> split_samples(const Tensor& batch) {
  std::vector<Tensor> out;
  for (std::int64_t i = 0; i < batch.shape().dim(0); ++i) {
    out.push_back(adq::take_sample(batch, i));
  }
  return out;
}

bool bit_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

std::int64_t argmax(const float* x, std::int64_t n) {
  return static_cast<std::int64_t>(std::max_element(x, x + n) - x);
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double seconds_since(Clock::time_point t0) { return ms_since(t0) / 1000.0; }

}  // namespace adqbench
