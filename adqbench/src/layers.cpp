// Per-layer sweep of the traced run. Every number is taken from outside,
// by timing calls into a layer's public functions:
//   infer    IntInferenceEngine::forward_into at b1 / b32 per plan, and
//            infer::run_gemm_layer per plan GEMM op at b32 (op_ms), with
//            unattributed = forward - sum(op) reported per plan;
//   backend  each integer plan layer's GEMM / im2col / act_pack shapes
//            replayed into backend::active(); bytes are computed from the
//            tensor sizes (read + written), not measured;
//   tensor   parallel_pool_stats() deltas around b32 forwards;
//   graph    infer::compile; infer: load_plan and engine construction;
//   ad/quant DensityMeter::observe and the backend fake_quant kernel.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <stdexcept>
#include <thread>

#include "ad/density_meter.h"
#include "backend/backend.h"
#include "backend/registry.h"
#include "bench/alloc_counter.h"
#include "fixtures.h"
#include "infer/engine.h"
#include "stats.h"
#include "tensor/bitpack.h"
#include "tensor/parallel.h"
#include "trace.h"
#include "workloads.h"

namespace adqbench {

using adq::Tensor;

namespace {

constexpr std::int64_t kBatch = 32;

// Median wall time of fn in ms: one warm-up call, then repeats until
// `budget_ms` is spent (at least `min_reps`, at most 2000).
double median_ms(const std::function<void()>& fn, double budget_ms,
                 int min_reps = 5) {
  fn();
  std::vector<double> ms;
  const Clock::time_point t0 = Clock::now();
  while ((static_cast<int>(ms.size()) < min_reps ||
          ms_since(t0) < budget_ms) &&
         ms.size() < 2000) {
    const Clock::time_point t = Clock::now();
    fn();
    ms.push_back(ms_since(t));
  }
  return median(ms);
}

// Metric-name-safe copy of a plan layer name.
std::string sanitize(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) c = '_';
  }
  return out;
}

// Post-ReLU-like activations: half zeros, the rest spread over [0, 2).
Tensor activations(adq::Shape shape, std::uint64_t seed) {
  Tensor t(std::move(shape));
  SplitMix64 rng(seed);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    const double u = rng.uniform();
    t[i] = u < 0.5 ? 0.0f : static_cast<float>(4.0 * (u - 0.5));
  }
  return t;
}

std::vector<std::uint8_t> codes(std::int64_t n, int bits,
                                std::uint64_t seed) {
  std::vector<std::uint8_t> out(static_cast<std::size_t>(n));
  SplitMix64 rng(seed);
  const std::uint64_t mask = (1ull << bits) - 1;
  for (auto& c : out) c = static_cast<std::uint8_t>(rng.next() & mask);
  return out;
}

// Input of plan op `i` at batch kBatch, shaped from the plan's own
// per-op element counts.
Tensor op_input(const adq::infer::GemmLayerPlan& l, std::int64_t in_elems,
                std::uint64_t seed) {
  if (!l.is_conv) return activations({kBatch, l.in_channels}, seed);
  const std::int64_t hw = in_elems / l.in_channels;
  const auto side = static_cast<std::int64_t>(std::lround(std::sqrt(hw)));
  if (side * side * l.in_channels != in_elems) {
    throw std::logic_error("op input of " + l.name + " is not square");
  }
  return activations({kBatch, l.in_channels, side, side}, seed);
}

struct Replay {
  double work = 0.0;  // MACs or bytes
  double ms = 0.0;
  void add(double w, double t) { work += w; ms += t; }
  double giga_per_s() const { return ms > 0.0 ? work / (ms * 1e6) : 0.0; }
};

// Replays every integer conv/linear layer's GEMM, im2col and packed-slot
// shapes at batch kBatch into the active backend.
void backend_replays(const std::vector<LoadedModel>& models, Result& out) {
  const adq::backend::Backend& be = adq::backend::active();
  Replay gemm8, gemm4, gemm2, im2col, act_pack;
  constexpr std::int64_t kMaxCols = 4096;
  std::uint64_t seed = 1;
  for (const LoadedModel& m : models) {
    const adq::infer::InferencePlan& plan = m.engine->plan();
    const adq::infer::ActivationReport rep = plan.activation_report(1);
    for (std::size_t i = 0; i < plan.ops.size(); ++i) {
      const adq::infer::OpPlan& op = plan.ops[i];
      if (op.out_act_bits > 0) {
        const std::int64_t n = rep.ops[i].out_elems * kBatch;
        const int cell = op.out_act_bits;
        const std::vector<std::uint8_t> in = codes(n, cell, ++seed);
        std::vector<std::uint8_t> packed(
            static_cast<std::size_t>(adq::packed_bytes(n, cell) + 64));
        ScopedSpan span("backend.act_pack", "backend");
        const double ms = median_ms(
            [&] { be.act_pack(in.data(), n, cell, packed.data()); }, 4.0);
        act_pack.add(static_cast<double>(n + adq::packed_bytes(n, cell)), ms);
      }
      if (op.kind != adq::infer::OpKind::kGemm &&
          op.kind != adq::infer::OpKind::kSkipGemm) {
        continue;
      }
      const adq::infer::GemmLayerPlan& l =
          plan.layers[static_cast<std::size_t>(op.layer)];
      if (l.path != adq::infer::ExecPath::kInteger || l.is_depthwise) continue;
      const int cell = adq::cell_bits_for(l.bits) == 1
                           ? 2
                           : adq::cell_bits_for(l.bits);
      const std::int64_t k = l.patch();
      std::int64_t m_rows = l.out_channels;
      std::int64_t cols = kBatch;
      if (l.is_conv) {
        const std::int64_t side = static_cast<std::int64_t>(std::lround(
            std::sqrt(rep.ops[i].in_elems / l.in_channels)));
        const std::int64_t out_side = l.out_extent(side);
        cols = kBatch * out_side * out_side;
        m_rows += 1;  // the all-ones zero-point row
        // im2col of one image of u8 codes.
        adq::ConvGeometry g;
        g.channels = l.in_channels;
        g.in_h = g.in_w = side;
        g.kernel_h = g.kernel_w = l.kernel;
        g.stride = l.stride;
        g.pad = l.pad;
        const std::int64_t ohw = g.out_h() * g.out_w();
        const std::vector<std::uint8_t> im =
            codes(l.in_channels * side * side, l.bits, ++seed);
        std::vector<std::uint8_t> col(static_cast<std::size_t>(k * ohw));
        ScopedSpan span("backend.im2col_u8", "backend");
        const double ms = median_ms(
            [&] { be.im2col_u8(im.data(), g, col.data(), ohw, 0); }, 4.0);
        im2col.add(static_cast<double>(im.size() + col.size()), ms);
      }
      const std::int64_t n = std::min(cols, kMaxCols);
      const std::vector<std::uint8_t> b = codes(k * n, l.bits, ++seed);
      std::vector<std::int32_t> c(static_cast<std::size_t>(m_rows * n));
      const double macs = static_cast<double>(m_rows * n * k);
      if (cell == 8) {
        const std::vector<std::uint8_t> a = codes(m_rows * k, l.bits, ++seed);
        ScopedSpan span("backend.igemm", "backend");
        gemm8.add(macs, median_ms([&] {
                    be.igemm(m_rows, n, k, a.data(), k, b.data(), n, c.data(),
                             n);
                  }, 6.0));
      } else {
        const std::int64_t row = adq::packed_row_bytes(k, cell);
        std::vector<std::uint8_t> a(static_cast<std::size_t>(m_rows * row), 0);
        for (std::int64_t r = 0; r < m_rows; ++r) {
          const std::vector<std::uint8_t> rc = codes(k, l.bits, ++seed);
          adq::pack_codes(rc.data(), k, cell, a.data() + r * row);
        }
        const adq::backend::IgemmPackedFn fn =
            cell == 4 ? be.igemm_w4 : be.igemm_w2;
        ScopedSpan span(cell == 4 ? "backend.igemm_w4" : "backend.igemm_w2",
                        "backend");
        (cell == 4 ? gemm4 : gemm2)
            .add(macs, median_ms([&] {
                   fn(m_rows, n, k, a.data(), row, b.data(), n, c.data(), n);
                 }, 6.0));
      }
    }
  }
  out.layer["backend.igemm_gmacs"] = gemm8.giga_per_s();
  out.layer["backend.igemm_w4_gmacs"] = gemm4.giga_per_s();
  out.layer["backend.igemm_w2_gmacs"] = gemm2.giga_per_s();
  out.layer["backend.im2col_gbps"] = im2col.giga_per_s();
  out.layer["backend.act_pack_gbps"] = act_pack.giga_per_s();
}

// Time of each plan GEMM op via infer::run_gemm_layer at b32, against the
// whole forward; prints the reconciliation table.
void op_times(const LoadedModel& m, double forward_ms, std::uint64_t seed,
              Result& out) {
  const adq::infer::InferencePlan& plan = m.engine->plan();
  const adq::infer::ActivationReport rep = plan.activation_report(1);
  double sum_ms = 0.0;
  for (std::size_t i = 0; i < plan.ops.size(); ++i) {
    const adq::infer::OpPlan& op = plan.ops[i];
    if (op.kind != adq::infer::OpKind::kGemm &&
        op.kind != adq::infer::OpKind::kSkipGemm) {
      continue;
    }
    const adq::infer::GemmLayerPlan& l =
        plan.layers[static_cast<std::size_t>(op.layer)];
    const Tensor x = op_input(l, rep.ops[i].in_elems, seed + i);
    const double ms = median_ms(
        [&] {
          ScopedSpan span("infer.run_gemm_layer", "infer");
          (void)adq::infer::run_gemm_layer(l, x);
        },
        30.0);
    out.layer["infer.op_ms." + m.key + "." + sanitize(l.name)] = ms;
    sum_ms += ms;
  }
  const double frac = 1.0 - sum_ms / forward_ms;
  out.layer["infer.unattributed_frac." + m.key] = frac;
  std::printf("reconcile %-15s b32 forward %8.3f ms = sum(op) %8.3f ms + "
              "unattributed %8.3f ms (%.1f%%)\n",
              m.key.c_str(), forward_ms, sum_ms, forward_ms - sum_ms,
              100.0 * frac);
}

}  // namespace

void layer_sweep(const RunConfig& cfg, Result& out) {
  std::vector<LoadedModel> models;
  double compile_ms = 0.0, load_ms = 0.0, ctor_ms = 0.0;
  double weight_bytes = 0.0, arena_bytes = 0.0, mac = 0.0, mem = 0.0;
  for (const ModelId id : kAllModels) {
    const CompiledModel c = compile_model(id);
    compile_ms += c.compile_ms;
    models.push_back(save_and_load(c, cfg.plan_dir));
    const LoadedModel& m = models.back();
    if (!m.fingerprint_matches) out.fail(m.key + ": fingerprint differs");
    load_ms += m.load_ms;
    ctor_ms += m.engine_ctor_ms;
    weight_bytes += static_cast<double>(m.engine->exec_weight_bytes());
    arena_bytes +=
        static_cast<double>(m.engine->peak_activation_bytes(kBatch));
    mac += m.mac_uj_per_img / 3.0;
    mem += m.mem_uj_per_img / 3.0;
  }
  out.layer["graph.compile_ms"] = compile_ms;
  out.layer["infer.load_plan_ms"] = load_ms;
  out.layer["infer.engine_ctor_ms"] = ctor_ms;
  out.layer["infer.exec_weight_bytes"] = weight_bytes;
  out.layer["infer.arena_bytes"] = arena_bytes;
  out.layer.emplace("energy.mac_uj_per_img", mac);
  out.layer.emplace("energy.mem_uj_per_img", mem);

  const Tensor x32 = make_images(cfg.seed, kBatch);
  const Tensor x1 = slice_batch(x32, 0, 1);
  Tensor y;
  double allocs = 0.0;
  for (const LoadedModel& m : models) {
    const auto fwd = [&](const Tensor& x) {
      return [&] {
        ScopedSpan span("infer.forward_into", "infer");
        m.engine->forward_into(x, y);
      };
    };
    out.layer["infer.forward_ms_b1." + m.key] = median_ms(fwd(x1), 300.0);
    const double b32 = median_ms(fwd(x32), 500.0);
    out.layer["infer.forward_ms_b32." + m.key] = b32;
    op_times(m, b32, cfg.seed, out);

    constexpr int kReps = 8;
    adq::alloccount::g_alloc_count.store(0);
    adq::alloccount::g_count_allocs.store(true);
    for (int i = 0; i < kReps; ++i) m.engine->forward_into(x32, y);
    adq::alloccount::g_count_allocs.store(false);
    allocs += static_cast<double>(adq::alloccount::g_alloc_count.load()) / kReps / 3.0;
  }
  out.layer["infer.allocs_per_forward"] = allocs;

  // Scheduler fan-out around b32 forwards with the whole pool as the
  // budget: dispatch count from the pool's counter, busy-worker peak from
  // a sampling thread.
  {
    const adq::ScopedThreadBudget whole_pool(0);
    std::atomic<bool> sampling{true};
    std::atomic<int> peak{0};
    std::thread sampler([&] {
      while (sampling.load()) {
        const int busy = adq::parallel_pool_stats().busy_workers;
        if (busy > peak.load()) peak.store(busy);
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    });
    constexpr int kReps = 8;
    const std::uint64_t j0 = adq::parallel_pool_stats().jobs_dispatched;
    std::exception_ptr error;  // rethrown once the sampler has joined
    try {
      for (int i = 0; i < kReps; ++i) {
        for (const LoadedModel& m : models) m.engine->forward_into(x32, y);
      }
    } catch (...) {
      error = std::current_exception();
    }
    const std::uint64_t j1 = adq::parallel_pool_stats().jobs_dispatched;
    sampling.store(false);
    sampler.join();
    if (error) std::rethrow_exception(error);
    out.layer["tensor.dispatches_per_forward"] =
        static_cast<double>(j1 - j0) / (kReps * 3.0);
    out.layer["tensor.pool_busy_peak"] = peak.load();
  }

  backend_replays(models, out);

  // Training-side kernels on VGG19-w0.125 conv1's b32 output shape.
  {
    const Tensor act = activations({kBatch, 8, 32, 32}, cfg.seed);
    adq::ad::DensityMeter meter("probe");
    out.layer["ad.observe_us"] = 1000.0 * median_ms([&] {
      ScopedSpan span("ad.observe", "ad");
      meter.observe(act);
    }, 100.0);
    std::vector<float> q(static_cast<std::size_t>(act.numel()));
    const double ms = median_ms([&] {
      ScopedSpan span("quant.fake_quant", "quant");
      adq::backend::active().fake_quant(act.data(), act.numel(), 4, q.data());
    }, 100.0);
    out.layer["quant.fake_quant_gbps"] =
        static_cast<double>(act.numel()) * 8.0 / (ms * 1e6);
  }

  if (out.layer.count("serve.exec_ms_p50") == 0) serve_probe(cfg, out);
  if (out.layer.count("train.epoch_s") == 0 ||
      out.layer.count("train.eval_s") == 0) {
    train_probe(cfg, out);
  }
}

}  // namespace adqbench
