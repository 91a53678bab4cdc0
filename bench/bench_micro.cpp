// Google-benchmark microbenches for the performance-critical primitives:
// GEMM, conv forward/backward, fake quantization, density metering, and the
// PIM functional array. These guard the substrate's throughput — the
// training benches' wall-clock budget depends on them.
//
// This file owns main() (not benchmark_main): the per-backend integer-GEMM
// benches are registered dynamically from the backend registry, so a newly
// registered backend shows up in the GMAC/s table without editing this file.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "ad/density_meter.h"
#include "backend/registry.h"
#include "infer/engine.h"
#include "infer/plan.h"
#include "models/vgg.h"
#include "nn/conv2d.h"
#include "nn/init.h"
#include "pim/accelerator.h"
#include "quant/quantizer.h"
#include "tensor/bitpack.h"
#include "tensor/gemm.h"
#include "tensor/rng.h"

namespace {

using namespace adq;

void BM_Gemm(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(1);
  Tensor a(Shape{n, n}), b(Shape{n, n});
  rng.fill_normal(a, 0.0f, 1.0f);
  rng.fill_normal(b, 0.0f, 1.0f);
  for (auto _ : state) {
    Tensor c = matmul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(256)->Arg(512);

void BM_ConvForward(benchmark::State& state) {
  const std::int64_t c = state.range(0);
  Rng rng(2);
  nn::Conv2d conv(c, c, 3, 1, 1, false);
  nn::init_conv(conv, rng);
  conv.set_quantization_enabled(false);
  Tensor x(Shape{8, c, 16, 16});
  rng.fill_normal(x, 0.0f, 1.0f);
  for (auto _ : state) {
    Tensor y = conv.forward(x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 8 * 16 * 16 * c * 9 * c);
}
BENCHMARK(BM_ConvForward)->Arg(16)->Arg(64);

void BM_ConvBackward(benchmark::State& state) {
  const std::int64_t c = state.range(0);
  Rng rng(3);
  nn::Conv2d conv(c, c, 3, 1, 1, false);
  nn::init_conv(conv, rng);
  conv.set_quantization_enabled(false);
  Tensor x(Shape{8, c, 16, 16});
  Tensor g(Shape{8, c, 16, 16});
  rng.fill_normal(x, 0.0f, 1.0f);
  rng.fill_normal(g, 0.0f, 1.0f);
  conv.forward(x);
  for (auto _ : state) {
    Tensor gx = conv.backward(g);
    benchmark::DoNotOptimize(gx.data());
  }
}
BENCHMARK(BM_ConvBackward)->Arg(16)->Arg(64);

void BM_QuantizedConvForward(benchmark::State& state) {
  // Overhead of in-training fake quantization relative to BM_ConvForward.
  Rng rng(4);
  nn::Conv2d conv(64, 64, 3, 1, 1, false);
  nn::init_conv(conv, rng);
  conv.set_bits(4);
  Tensor x(Shape{8, 64, 16, 16});
  rng.fill_normal(x, 0.0f, 1.0f);
  for (auto _ : state) {
    Tensor y = conv.forward(x);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_QuantizedConvForward);

void BM_FakeQuantize(benchmark::State& state) {
  Rng rng(5);
  Tensor x(Shape{1 << 20});
  rng.fill_normal(x, 0.0f, 1.0f);
  for (auto _ : state) {
    Tensor y = quant::fake_quantize(x, 4);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetBytesProcessed(state.iterations() * x.numel() * sizeof(float));
}
BENCHMARK(BM_FakeQuantize);

void BM_DensityObserve(benchmark::State& state) {
  Rng rng(6);
  Tensor x(Shape{1 << 20});
  rng.fill_normal(x, 0.0f, 1.0f);
  ad::DensityMeter meter;
  for (auto _ : state) {
    meter.observe(x);
    benchmark::DoNotOptimize(meter.observed_nonzero());
  }
  state.SetBytesProcessed(state.iterations() * x.numel() * sizeof(float));
}
BENCHMARK(BM_DensityObserve);

// The whole compiled int8 VGG19 forward on the slot-based arena executor.
const infer::IntInferenceEngine& int8_vgg_engine() {
  static const infer::IntInferenceEngine* engine = [] {
    Rng rng(8);
    models::VggConfig cfg;
    cfg.width_mult = 0.125;
    cfg.num_classes = 10;
    auto model = models::build_vgg19(cfg, rng);
    model->set_training(false);
    for (int i = 0; i < model->unit_count(); ++i) {
      if (!model->unit(i).frozen) model->unit(i).set_bits(8);
    }
    return new infer::IntInferenceEngine(infer::compile(*model));
  }();
  return *engine;
}

void BM_IntForwardArena(benchmark::State& state) {
  const infer::IntInferenceEngine& engine = int8_vgg_engine();
  const std::int64_t batch = state.range(0);
  Rng rng(9);
  Tensor x(Shape{batch, 3, 32, 32});
  rng.fill_normal(x, 0.0f, 1.0f);
  Tensor out;
  for (auto _ : state) {
    engine.forward_into(x, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_IntForwardArena)->Arg(1)->Arg(8);

void BM_PimDotProduct(benchmark::State& state) {
  const int bits = static_cast<int>(state.range(0));
  Rng rng(7);
  const std::int64_t max = (std::int64_t{1} << bits) - 1;
  std::vector<std::int64_t> w(128), a(128);
  for (auto& v : w) v = rng.uniform_int(0, max);
  for (auto& v : a) v = rng.uniform_int(0, max);
  for (auto _ : state) {
    pim::EventCounts ev;
    benchmark::DoNotOptimize(pim::pim_dot_product(w, a, bits, ev));
  }
}
BENCHMARK(BM_PimDotProduct)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

// Per-backend x per-bitwidth u8 GEMM throughput on the engine's blocked
// shape class. Codes are capped to the bit-width's range, matching what the
// mixed-precision layers actually feed the kernel. items_processed counts
// MACs, so the reported items/s column reads directly as MAC/s.
void backend_igemm_bench(benchmark::State& state,
                         const adq::backend::Backend& bk, int bits) {
  const std::int64_t m = 128, n = 512, k = 256;
  const std::int64_t max_code = (std::int64_t{1} << bits) - 1;
  Rng rng(10);
  std::vector<std::uint8_t> a(static_cast<std::size_t>(m * k));
  std::vector<std::uint8_t> b(static_cast<std::size_t>(k * n));
  for (auto& v : a) v = static_cast<std::uint8_t>(rng.uniform_int(0, max_code));
  for (auto& v : b) v = static_cast<std::uint8_t>(rng.uniform_int(0, max_code));
  std::vector<std::int32_t> c(static_cast<std::size_t>(m * n));
  for (auto _ : state) {
    bk.igemm(m, n, k, a.data(), k, b.data(), n, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * m * n * k);
}

// Packed sub-byte weight GEMM throughput: same shape class, but the weights
// stay as row-aligned packed cells so the kernels' in-register nibble/crumb
// expansion is on the measured path. BM_BackendIgemmPacked/<backend>/w4
// against BM_BackendIgemm/<backend>/int8 is the "packed int4 beats int8"
// comparison in bench form (the conformance harness's --perf mode reports
// the same numbers as GMAC/s).
void backend_igemm_packed_bench(benchmark::State& state,
                                const adq::backend::Backend& bk, int cell) {
  const std::int64_t m = 128, n = 512, k = 256;
  const std::int64_t max_code = (std::int64_t{1} << cell) - 1;
  Rng rng(10);
  const std::int64_t row_bytes = packed_row_bytes(k, cell);
  std::vector<std::uint8_t> codes(static_cast<std::size_t>(k));
  std::vector<std::uint8_t> a(static_cast<std::size_t>(m * row_bytes));
  for (std::int64_t i = 0; i < m; ++i) {
    for (auto& v : codes) {
      v = static_cast<std::uint8_t>(rng.uniform_int(0, max_code));
    }
    pack_codes(codes.data(), k, cell, a.data() + i * row_bytes);
  }
  std::vector<std::uint8_t> b(static_cast<std::size_t>(k * n));
  for (auto& v : b) v = static_cast<std::uint8_t>(rng.uniform_int(0, max_code));
  std::vector<std::int32_t> c(static_cast<std::size_t>(m * n));
  const auto fn = cell == 4 ? bk.igemm_w4 : bk.igemm_w2;
  for (auto _ : state) {
    fn(m, n, k, a.data(), row_bytes, b.data(), n, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * m * n * k);
}

void register_backend_igemm_benches() {
  for (const adq::backend::Backend* bk : adq::backend::available_backends()) {
    for (int bits : {8, 4, 2}) {
      const std::string name = std::string("BM_BackendIgemm/") + bk->name +
                               "/int" + std::to_string(bits);
      benchmark::RegisterBenchmark(
          name.c_str(), [bk, bits](benchmark::State& state) {
            backend_igemm_bench(state, *bk, bits);
          });
    }
    for (int cell : {4, 2}) {
      const std::string name = std::string("BM_BackendIgemmPacked/") +
                               bk->name + "/w" + std::to_string(cell);
      benchmark::RegisterBenchmark(
          name.c_str(), [bk, cell](benchmark::State& state) {
            backend_igemm_packed_bench(state, *bk, cell);
          });
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_backend_igemm_benches();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
