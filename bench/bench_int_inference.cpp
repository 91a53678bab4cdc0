// Integer inference engine bench: float vs fake-quant vs integer execution
// of VGG19 at several batch sizes.
//
// The float path runs the network with quantization disabled (the plain
// training-graph forward); the fake-quant path simulates the 8-bit policy
// in float exactly as Algorithm 1 trains it; the integer path executes the
// compiled plan (packed weights, u8 GEMM, fused epilogues — src/infer). A
// mixed-precision row replays the paper's Table II(a) VGG19/CIFAR-10 bit
// vector (clipped to the 8-bit integer ceiling) to show the packed sub-byte
// storage. Per-path wall time, throughput, speedup vs float, top-1
// agreement vs fake-quant, and resident weight bytes land in the table and
// in BENCH_int_inference.json.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <functional>
#include <numeric>
#include <string>

// Replaces global operator new/delete for the allocs-per-forward metric:
// the arena executor's contract is ZERO steady-state heap allocations,
// and this bench measures (rather than assumes) it on every run.
#include "bench/alloc_counter.h"
#include "bench/common.h"
#include "energy/analytical.h"
#include "infer/engine.h"
#include "infer/plan.h"
#include "report/table.h"
#include "tensor/ops.h"
#include "tensor/parallel.h"

namespace {

using adq::Tensor;

// Mean heap allocations of one forward_into() after warm-up.
double allocs_per_forward(const adq::infer::IntInferenceEngine& engine,
                          const Tensor& x) {
  Tensor out;
  for (int i = 0; i < 3; ++i) engine.forward_into(x, out);
  constexpr int kReps = 10;
  adq::alloccount::g_alloc_count.store(0);
  adq::alloccount::g_count_allocs.store(true);
  for (int i = 0; i < kReps; ++i) engine.forward_into(x, out);
  adq::alloccount::g_count_allocs.store(false);
  return static_cast<double>(adq::alloccount::g_alloc_count.load()) / kReps;
}

double time_best_ms(int reps, const std::function<Tensor()>& fn) {
  double best = 1e300;
  fn();  // warm-up (thread pool, page faults)
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    const Tensor out = fn();
    const auto t1 = std::chrono::steady_clock::now();
    (void)out;
    best = std::min(best, std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

double agreement(const std::vector<std::int64_t>& a,
                 const std::vector<std::int64_t>& b) {
  std::size_t same = 0;
  for (std::size_t i = 0; i < a.size(); ++i) same += a[i] == b[i];
  return a.empty() ? 0.0 : static_cast<double>(same) / static_cast<double>(a.size());
}

}  // namespace

int main() {
  using namespace adq;
  bench::JsonReport json("int_inference");
  const bench::Scale s = bench::bench_scale();
  const int reps = s.name == "tiny" ? 2 : 5;

  // Model: VGG19 at bench width, as Algorithm 1 would leave it — an 8-bit
  // policy on every non-frozen unit, float (quantization-exempt) ends.
  Rng rng(42);
  models::VggConfig mcfg;
  mcfg.width_mult = s.width_mult;
  mcfg.num_classes = s.classes_c10;
  auto model = models::build_vgg19(mcfg, rng);
  model->set_training(false);

  // Synthetic CIFAR-10-like eval batch (same generator as the paper-table
  // benches).
  data::SyntheticSpec dspec = data::synthetic_cifar10_spec();
  dspec.num_classes = s.classes_c10;
  dspec.train_count = 8;
  dspec.test_count = 64;
  const data::TrainTestSplit split = data::make_synthetic(dspec);

  auto set_bits = [&](const std::vector<int>& bits_per_unit) {
    quant::BitWidthPolicy policy = model->bit_policy();
    for (int i = 0; i < model->unit_count(); ++i) {
      if (!model->unit(i).frozen) policy.set(i, bits_per_unit[static_cast<std::size_t>(i)]);
    }
    model->apply_bit_policy(policy);
  };
  auto set_quant_enabled = [&](bool enabled) {
    for (int i = 0; i < model->unit_count(); ++i) {
      if (!model->unit(i).frozen) model->unit(i).set_quantization_enabled(enabled);
    }
  };

  const std::vector<int> uniform8(static_cast<std::size_t>(model->unit_count()), 8);
  // Paper Table II(a) iteration-2 bit vector, clipped to the integer
  // ceiling (5-bit layers execute in 8-bit cells, like the PIM grid).
  std::vector<int> mixed = bench::kPaperVggC10Bits;
  for (int& b : mixed) b = std::min(b, 8);

  report::Table table("Integer inference engine — VGG19, scale " + s.name);
  table.set_header({"path", "batch", "ms/batch", "imgs/s", "vs float",
                    "top-1 agree", "weights"});

  const std::size_t float_bytes =
      [&] {
        set_quant_enabled(false);
        return infer::compile(*model).weight_bytes();
      }();

  std::vector<std::int64_t> batches{1, 8, 32};
  bool int8_wins_at_8plus = true;
  for (const std::int64_t B : batches) {
    std::vector<std::int64_t> idx(static_cast<std::size_t>(B));
    std::iota(idx.begin(), idx.end(), 0);
    const Tensor x = split.test.gather(idx).images;
    const auto per_img = [&](double ms) {
      return 1000.0 * static_cast<double>(B) / ms;
    };
    const std::string bs = std::to_string(B);

    // Float path: quantization disabled end to end.
    set_quant_enabled(false);
    const double float_ms = time_best_ms(reps, [&] { return model->forward(x); });
    table.add_row({"float", bs, report::fmt(float_ms), report::fmt(per_img(float_ms), 1),
                   "1.00x", "-", report::fmt(static_cast<double>(float_bytes) / 1024.0, 1) + " KiB"});
    json.add("float_b" + bs + "_ms", float_ms, "ms");

    // Fake-quant path: the 8-bit policy simulated in float (training graph).
    set_quant_enabled(true);
    set_bits(uniform8);
    const double fq_ms = time_best_ms(reps, [&] { return model->forward(x); });
    const Tensor fq_logits = model->forward(x);
    const std::vector<std::int64_t> fq_top1 = argmax_rows(fq_logits);
    table.add_row({"fake-quant int8", bs, report::fmt(fq_ms), report::fmt(per_img(fq_ms), 1),
                   report::fmt_factor(float_ms / fq_ms), "-",
                   report::fmt(static_cast<double>(float_bytes) / 1024.0, 1) + " KiB"});
    json.add("fakequant8_b" + bs + "_ms", fq_ms, "ms");

    // Integer path: compiled plan, packed int8 weights.
    const infer::IntInferenceEngine engine8(infer::compile(*model));
    const double int_ms = time_best_ms(reps, [&] { return engine8.forward(x); });
    const double agree8 = agreement(engine8.predict(x), fq_top1);
    table.add_row({"integer int8", bs, report::fmt(int_ms), report::fmt(per_img(int_ms), 1),
                   report::fmt_factor(float_ms / int_ms), report::fmt_percent(agree8, 1),
                   report::fmt(static_cast<double>(engine8.plan().weight_bytes()) / 1024.0, 1) + " KiB"});
    json.add("int8_b" + bs + "_ms", int_ms, "ms");
    json.add("int8_b" + bs + "_speedup_vs_float", float_ms / int_ms, "x");
    json.add("int8_b" + bs + "_top1_agree", agree8, "frac");
    if (B >= 8 && int_ms >= float_ms) int8_wins_at_8plus = false;

    // Mixed precision (paper Table II(a) bits, sub-byte layers bit-packed).
    set_bits(mixed);
    const infer::IntInferenceEngine engine_mixed(infer::compile(*model));
    const double mixed_ms = time_best_ms(reps, [&] { return engine_mixed.forward(x); });
    const Tensor mixed_ref = model->forward(x);
    const double agree_mixed =
        agreement(engine_mixed.predict(x), argmax_rows(mixed_ref));
    table.add_row({"integer mixed", bs, report::fmt(mixed_ms), report::fmt(per_img(mixed_ms), 1),
                   report::fmt_factor(float_ms / mixed_ms), report::fmt_percent(agree_mixed, 1),
                   report::fmt(static_cast<double>(engine_mixed.plan().weight_bytes()) / 1024.0, 1) + " KiB"});
    json.add("mixed_b" + bs + "_ms", mixed_ms, "ms");
    set_bits(uniform8);
  }

  std::printf("%s\n", table.to_markdown().c_str());
  std::printf("int8 beats float at batch >= 8: %s\n",
              int8_wins_at_8plus ? "yes" : "NO");
  json.add("int8_wins_at_batch_ge8", int8_wins_at_8plus ? 1.0 : 0.0, "bool");
  json.add("weight_bytes_float", static_cast<double>(float_bytes), "bytes");

  // -- static memory plan: peak activation footprint, per-layer activation
  //    traffic (the paper's E_Mem|k term), and allocs per forward ---------
  set_quant_enabled(true);
  set_bits(uniform8);
  const infer::InferencePlan plan8 = infer::compile(*model);
  const infer::IntInferenceEngine engine8(plan8);
  for (const std::int64_t B : batches) {
    json.add("peak_activation_bytes_b" + std::to_string(B),
             static_cast<double>(plan8.peak_activation_bytes(B)), "bytes");
  }
  json.add("arena_bytes_per_sample", static_cast<double>(plan8.arena_bytes),
           "bytes");

  const infer::ActivationReport traffic = plan8.activation_report(1);
  report::Table mem_table(
      "Activation memory & traffic — int8 plan, batch 1 (E_Mem|k = 2.5k pJ)");
  mem_table.set_header(
      {"op", "bits", "in KiB", "out KiB", "E_mem nJ"});
  double total_mem_nj = 0.0;
  for (const infer::OpActivation& op : traffic.ops) {
    if (op.in_bytes == 0 && op.out_bytes == 0) continue;  // pure views
    const double e_nj =
        (static_cast<double>(op.in_elems) *
             energy::mem_access_energy_pj(op.bits) +
         static_cast<double>(op.out_elems) * energy::mem_access_energy_pj(32)) *
        1e-3;
    total_mem_nj += e_nj;
    mem_table.add_row({op.name, std::to_string(op.bits),
                       report::fmt(static_cast<double>(op.in_bytes) / 1024.0),
                       report::fmt(static_cast<double>(op.out_bytes) / 1024.0),
                       report::fmt(e_nj, 1)});
  }
  mem_table.add_row({"TOTAL", "-",
                     report::fmt(static_cast<double>(traffic.total_bytes) / 1024.0),
                     report::fmt(static_cast<double>(traffic.peak_bytes) / 1024.0) +
                         " peak",
                     report::fmt(total_mem_nj, 1)});
  std::printf("\n%s\n", mem_table.to_markdown().c_str());
  json.add("activation_traffic_bytes_b1",
           static_cast<double>(traffic.total_bytes), "bytes");
  json.add("activation_mem_energy_nj_b1", total_mem_nj, "nJ");

  {
    std::vector<std::int64_t> idx(8);
    std::iota(idx.begin(), idx.end(), 0);
    const Tensor x8 = split.test.gather(idx).images;
    const double allocs = allocs_per_forward(engine8, x8);
    std::printf("allocations per forward (b8, arena executor): %.1f  "
                "(peak activations %.1f KiB)\n",
                allocs,
                static_cast<double>(plan8.peak_activation_bytes(8)) / 1024.0);
    json.add("allocs_per_forward_b8", allocs, "allocs");
  }

  // -- thread scaling: GMAC/s at intra-op budgets 1/2/4 ------------------
  // ScopedThreadBudget caps the fan-out of every parallel_for the timing
  // thread dispatches — the same mechanism a serving worker uses — so the
  // trajectory tracks parallel efficiency, not just single-stream speed.
  // Budgets above the pool size clamp to it (rows still emitted so the
  // JSON schema is stable across hosts; the clamped rows then coincide).
  {
    std::vector<std::int64_t> idx(8);
    std::iota(idx.begin(), idx.end(), 0);
    const Tensor x8 = split.test.gather(idx).images;
    const double gmacs_per_batch =
        static_cast<double>(model->spec().total_macs()) * 8.0 * 1e-9;
    std::printf("\nthread scaling (int8, b8, %.2f GMAC/batch, pool %d):",
                gmacs_per_batch, parallel_thread_count());
    double gmacs1 = 0.0;
    for (const int budget : {1, 2, 4}) {
      ScopedThreadBudget cap(budget);
      const double ms = time_best_ms(reps, [&] { return engine8.forward(x8); });
      const double gmacs_s = gmacs_per_batch / (ms / 1000.0);
      if (budget == 1) gmacs1 = gmacs_s;
      const int effective = parallel_effective_threads();
      std::printf("  t%d %.2f GMAC/s (%.2fx)", budget, gmacs_s,
                  gmacs_s / gmacs1);
      json.add("threads" + std::to_string(budget) + "_gmacs", gmacs_s,
               "GMAC/s");
      json.add("threads" + std::to_string(budget) + "_effective",
               static_cast<double>(effective), "threads");
      json.add("threads" + std::to_string(budget) + "_scaling_vs_1",
               gmacs_s / gmacs1, "x");
    }
    std::printf("\n");
  }

  // -- activation compression: packed vs float-slot arena --
  // The paper-mixed plan compresses hardest (sub-byte layers store 4/2-bit
  // codes); the planner records the float-slot footprint of the same
  // schedule alongside (arena_bytes_u8). Also times the packed plan at b1.
  {
    set_bits(mixed);
    const infer::InferencePlan packed_plan = infer::compile(*model);

    const double reduction =
        packed_plan.arena_bytes_u8 > 0
            ? 1.0 - static_cast<double>(packed_plan.arena_bytes) /
                        static_cast<double>(packed_plan.arena_bytes_u8)
            : 0.0;
    json.add("arena_bytes_packed", static_cast<double>(packed_plan.arena_bytes),
             "bytes");
    json.add("arena_bytes_u8", static_cast<double>(packed_plan.arena_bytes_u8),
             "bytes");
    json.add("arena_reduction_frac", reduction, "frac");
    const std::array<int, 9> cells = packed_plan.act_cell_histogram();
    for (int c = 0; c < static_cast<int>(cells.size()); ++c) {
      if (cells[static_cast<std::size_t>(c)] > 0) {
        json.add("act_cells_" + std::to_string(c),
                 static_cast<double>(cells[static_cast<std::size_t>(c)]),
                 "ops");
      }
    }

    const infer::IntInferenceEngine packed_engine(packed_plan);
    std::vector<std::int64_t> idx(1);
    const Tensor x1 = split.test.gather(idx).images;
    const double b1_ms =
        time_best_ms(reps, [&] { return packed_engine.forward(x1); });
    std::printf(
        "activation compression (paper-mixed): arena %.1f KiB packed vs "
        "%.1f KiB float (-%.1f%%), b1 %.3f ms\n",
        static_cast<double>(packed_plan.arena_bytes) / 1024.0,
        static_cast<double>(packed_plan.arena_bytes_u8) / 1024.0,
        100.0 * reduction, b1_ms);
    json.add("paper_mixed_b1_ms", b1_ms, "ms");
    set_bits(uniform8);
  }
  return 0;
}
