// Dynamic-batching inference server walkthrough.
//
// First run: builds a width-scaled VGG19 with the paper's Table II(a)
// mixed bit vector (clipped to the 8-bit integer ceiling), compiles it,
// and writes the plan to an .adqplan file. Every run (including the
// first) then COLD-STARTS a server from that file alone — load_plan +
// IntInferenceEngine + InferenceServer, no model rebuild, no retraining —
// floods it with single-sample requests from two producer threads, and
// prints throughput, tail latency, the batch-size histogram, and top-1
// agreement against direct engine calls.
//
//   ./build/examples/serve_demo [plan.adqplan]
//
// Run it twice to see the cold-start path skip straight to "loading".
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <thread>
#include <vector>

#include "data/synthetic.h"
#include "infer/engine.h"
#include "infer/plan.h"
#include "infer/plan_io.h"
#include "models/vgg.h"
#include "serve/server.h"
#include "tensor/ops.h"

int main(int argc, char** argv) {
  using namespace adq;
  const std::string plan_path = argc > 1 ? argv[1] : "vgg19_paper.adqplan";

  // 1. Ensure the compiled plan exists (train -> compile -> save_plan; the
  //    "training" here is the paper's published bit vector on a fresh
  //    model, as in int_inference_demo).
  if (!std::ifstream(plan_path).good()) {
    std::printf("no %s — compiling one (paper Table II(a) bits)...\n",
                plan_path.c_str());
    Rng rng(3);
    models::VggConfig mcfg;
    mcfg.width_mult = 0.125;
    mcfg.num_classes = 10;
    auto model = models::build_vgg19(mcfg, rng);
    const std::vector<int> paper_bits{16, 4, 5, 4, 3, 2, 2, 2, 3,
                                      3,  3, 4, 3, 3, 3, 3, 16};
    quant::BitWidthPolicy policy = model->bit_policy();
    for (int i = 0; i < model->unit_count(); ++i) {
      if (!model->unit(i).frozen) {
        policy.set(i, std::min(paper_bits[static_cast<std::size_t>(i)], 8));
      }
    }
    model->apply_bit_policy(policy);
    model->set_training(false);
    infer::save_plan(infer::compile(*model), plan_path);
  }

  // 2. Cold start: everything the server needs comes from the file.
  const auto t_load0 = std::chrono::steady_clock::now();
  const infer::InferencePlan plan = infer::load_plan(plan_path);
  const infer::IntInferenceEngine engine(plan);
  const double load_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t_load0)
                             .count();
  std::printf("loaded %s: %s, %zu layers (%d integer), %.1f KiB weights, "
              "%.2f ms to serving-ready\n",
              plan_path.c_str(), plan.model_name.c_str(), plan.layers.size(),
              plan.integer_layer_count(),
              static_cast<double>(plan.weight_bytes()) / 1024.0, load_ms);

  serve::ServerConfig cfg;
  cfg.sample_shape = Shape{3, 32, 32};
  cfg.max_batch = 16;
  cfg.max_wait_us = 1000;
  cfg.workers = 1;
  serve::InferenceServer server(engine, cfg);

  // The static memory contract: the plan's compile-time activation arena
  // bounds the planned activation slots one worker ever touches (kernel
  // scratch is additional) — the first-order number an operator multiplies
  // by the worker count to size a deployment.
  {
    const serve::ServerStats::Snapshot st = server.stats();
    std::printf("activation arena: %.1f KiB/sample -> %.1f KiB "
                "per worker at max_batch %lld\n",
                static_cast<double>(st.arena_bytes_per_sample) / 1024.0,
                static_cast<double>(st.peak_activation_bytes_per_worker) /
                    1024.0,
                static_cast<long long>(cfg.max_batch));
  }

  // 3. Traffic: two producers, 128 single-sample requests.
  data::SyntheticSpec dspec = data::synthetic_cifar10_spec();
  dspec.train_count = 8;
  dspec.test_count = 128;
  const data::TrainTestSplit split = data::make_synthetic(dspec);
  std::vector<Tensor> samples;
  for (std::int64_t i = 0; i < dspec.test_count; ++i) {
    samples.push_back(take_sample(split.test.images(), i));
  }

  std::vector<std::future<serve::InferenceResult>> futures(samples.size());
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> producers;
  for (int p = 0; p < 2; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = static_cast<std::size_t>(p); i < samples.size();
           i += 2) {
        futures[i] = server.submit(samples[i]);
      }
    });
  }
  for (auto& t : producers) t.join();

  struct Done {
    std::uint64_t id;
    std::size_t sample;
    std::int64_t top1;
    std::int64_t batch_size;
  };
  std::vector<Done> done;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const serve::InferenceResult r = futures[i].get();
    done.push_back({r.id, i, r.top1, r.batch_size});
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // Requests coalesced in queue order, so sorting by id and walking the
  // recorded batch sizes reconstructs each served batch exactly; the
  // direct engine call on the same stacked batch must agree bit for bit.
  std::sort(done.begin(), done.end(),
            [](const Done& a, const Done& b) { return a.id < b.id; });
  std::size_t agree = 0;
  for (std::size_t i = 0; i < done.size();) {
    const std::size_t bs = static_cast<std::size_t>(done[i].batch_size);
    std::vector<const Tensor*> batch;
    for (std::size_t j = i; j < i + bs; ++j) {
      batch.push_back(&samples[done[j].sample]);
    }
    const std::vector<std::int64_t> direct =
        engine.predict(stack_samples(batch));
    for (std::size_t j = 0; j < bs; ++j) {
      agree += direct[j] == done[i + j].top1;
    }
    i += bs;
  }

  const serve::ServerStats::Snapshot st = server.stats();
  std::printf("\nserved %llu requests in %.0f ms  (%.0f req/s)\n",
              static_cast<unsigned long long>(st.requests), 1000.0 * wall_s,
              static_cast<double>(st.requests) / wall_s);
  std::printf("latency p50 %.2f ms  p95 %.2f ms  p99 %.2f ms  "
              "(mean queue %.2f ms)\n",
              st.p50_us / 1000.0, st.p95_us / 1000.0, st.p99_us / 1000.0,
              st.mean_queue_us / 1000.0);
  std::printf("  split: queue-wait p50 %.2f ms p99 %.2f ms | "
              "execution p50 %.2f ms p99 %.2f ms\n",
              st.p50_queue_us / 1000.0, st.p99_queue_us / 1000.0,
              st.p50_exec_us / 1000.0, st.p99_exec_us / 1000.0);
  std::printf("batches: %llu (mean size %.1f)  histogram:",
              static_cast<unsigned long long>(st.batches), st.mean_batch);
  for (const auto& [size, count] : st.batch_histogram) {
    std::printf("  %lldx%llu", static_cast<long long>(size),
                static_cast<unsigned long long>(count));
  }
  std::printf("\ntop-1 agreement vs direct engine calls on the same "
              "batches: %zu/%zu\n",
              agree, done.size());

  // 4. Served logits vs direct execution: serve a deterministic request
  //    stream (one producer, a full-batch window) and recompute every
  //    served batch — reconstructed from request ids and batch sizes as in
  //    step 3 — with a direct engine.forward on the same stacked samples.
  //    Every served logit must match BIT for bit — the demo exits nonzero
  //    otherwise.
  serve::ServerConfig dcfg;
  dcfg.sample_shape = Shape{3, 32, 32};
  dcfg.max_batch = 16;
  dcfg.max_wait_us = 200'000;  // full batches: submit outruns the window
  dcfg.workers = 1;
  std::vector<serve::InferenceResult> served;
  {
    serve::InferenceServer dserver(engine, dcfg);
    std::vector<std::future<serve::InferenceResult>> futs;
    for (std::size_t i = 0; i < 64 && i < samples.size(); ++i) {
      futs.push_back(dserver.submit(samples[i]));
    }
    for (auto& f : futs) served.push_back(f.get());
  }
  // One producer: ids ascend in submit order, i.e. in sample order.
  std::vector<std::size_t> order(served.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return served[a].id < served[b].id;
  });
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < order.size();) {
    const std::size_t bs = std::clamp<std::size_t>(
        static_cast<std::size_t>(served[order[i]].batch_size), 1,
        order.size() - i);
    std::vector<const Tensor*> batch;
    for (std::size_t j = i; j < i + bs; ++j) batch.push_back(&samples[order[j]]);
    const Tensor direct = engine.forward(stack_samples(batch));
    for (std::size_t j = 0; j < bs; ++j) {
      const Tensor& got = served[order[i + j]].logits;
      const std::int64_t classes = got.numel();
      for (std::int64_t k = 0; k < classes; ++k) {
        mismatches += got[k] != direct[static_cast<std::int64_t>(j) * classes + k];
      }
    }
    i += bs;
  }
  std::printf("served vs direct engine.forward on the same batches: %zu logit "
              "mismatches across %zu requests (must be 0)\n",
              mismatches, served.size());
  if (mismatches != 0) return 1;
  return 0;
}
