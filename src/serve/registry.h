// Multi-model serving registry with zero-downtime hot reload and an
// SLO-driven precision ladder.
//
// ModelRegistry serves many named models concurrently: each model owns a
// lock-guarded RequestQueue + DynamicBatcher + worker pool (the same
// data path as InferenceServer) and an ordered LADDER of compiled plans —
// rung 0 the highest precision, later rungs cheaper bit allocations of
// the SAME trained weights. submit(model, sample) routes by name; every
// InferenceResult records the rung and plan fingerprint that served it.
//
// Hot reload: hot_swap(model, rung, plan) loads and VERIFIES the incoming
// plan (its planned input shape and output dimension must match the
// incumbent's — a mismatch is rejected with an error naming both plan
// fingerprints), then atomically replaces the rung behind a shared_ptr
// handle. Workers acquire the rung's engine handle once per batch, so
// in-flight batches finish on the plan they started on while the next
// batch runs the new plan; the old engine is destroyed when its last
// in-flight batch releases it. No request is dropped, no lock is held
// across a forward, and a swap needs only plan-load time (~2 ms).
//
// SLO control: a LadderController per model observes (recent p99, queue
// depth) after completed batches (rate-limited to tick_interval_us) and
// steps the model down the ladder under pressure, back up when the queue
// drains — degrading precision instead of shedding load. The live
// precision mix, transition counts, and current rung are published in
// ServerStats. ADQ_SLO_P99_US overrides the latency target; ADQ_LADDER
// pins or disables stepping (see ladder.h). For A/B baselines, a model
// with shed_queue_depth > 0 instead rejects submits (ServerOverloaded)
// once its queue is that deep — the classic load-shedding policy
// bench_serve_ladder compares the ladder against.
//
// shutdown()/remove_model(drain=true) stop intake and drain every
// accepted request; remove_model(drain=false) fails still-queued requests
// with ServerStopped (their futures always resolve — see request_queue.h).
#pragma once

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "infer/plan.h"
#include "serve/ladder.h"
#include "serve/request_queue.h"
#include "serve/stats.h"
#include "tensor/shape.h"

namespace adq::serve {

struct ModelConfig {
  std::int64_t max_batch = 16;
  std::int64_t max_wait_us = 200;
  /// Batch-executor threads for this model (the engine parallelises
  /// inside a batch via the ADQ_THREADS pool; see ServerConfig::workers).
  int workers = 1;
  /// Intra-op thread budget per worker. 0 = auto (pool size / workers);
  /// ADQ_THREADS_PER_WORKER overrides when use_env is set. See
  /// ServerConfig::threads_per_worker.
  int threads_per_worker = 0;
  /// SLO targets + hysteresis for the ladder controller.
  LadderSlo slo;
  /// Minimum spacing between controller observations. Ticks happen on the
  /// worker path after a batch completes, so the effective cadence is
  /// max(tick_interval_us, batch duration).
  std::int64_t tick_interval_us = 2'000;
  /// > 0: reject submits with ServerOverloaded once the queue is this
  /// deep — load shedding, the baseline policy a ladder replaces. 0 (the
  /// default) never sheds.
  std::int64_t shed_queue_depth = 0;
  /// -1: adaptive (the controller steps). >= 0: pin serving to this rung
  /// (clamped to the last rung). ADQ_LADDER overrides when set.
  int pin_step = -1;
  /// Apply the ADQ_SLO_P99_US / ADQ_LADDER environment overrides. Tests
  /// that need hermetic configs turn this off.
  bool use_env = true;
};

class ModelRegistry {
 public:
  ModelRegistry();
  /// Drains and joins every model (as shutdown()).
  ~ModelRegistry();

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Registers `name` serving the given plan ladder (rung 0 first; at
  /// least one rung). Every rung must agree with rung 0 on planned input
  /// shape and output dimension (validated with errors naming both
  /// fingerprints); every plan must carry a planned input shape. Throws std::invalid_argument on a duplicate name or malformed
  /// config. Workers start serving before this returns.
  void add_model(const std::string& name,
                 std::vector<infer::InferencePlan> ladder,
                 ModelConfig config = {});

  /// As above, loading each rung from an .adqplan file.
  void add_model(const std::string& name,
                 const std::vector<std::string>& plan_paths,
                 ModelConfig config = {});

  /// Enqueues one sample for `name`. Throws std::out_of_range for an
  /// unknown model, std::invalid_argument on a shape mismatch,
  /// ServerOverloaded when shedding, std::runtime_error after shutdown.
  std::future<InferenceResult> submit(const std::string& name, Tensor sample);

  /// Replaces rung `step` of `name` with `plan`, zero-downtime (see file
  /// comment). Throws std::out_of_range for an unknown model or rung, and
  /// std::invalid_argument — naming the incumbent's and the candidate's
  /// plan fingerprints — when the plan's input shape or output dimension
  /// differs from the incumbent's.
  void hot_swap(const std::string& name, int step, infer::InferencePlan plan);

  /// As above, loading the plan from an .adqplan file.
  void hot_swap(const std::string& name, int step,
                const std::string& plan_path);

  /// Stops intake for `name`; drain=true completes every accepted request
  /// first, drain=false fails still-queued ones with ServerStopped
  /// (requests already executing still complete). Joins its workers.
  void remove_model(const std::string& name, bool drain = true);

  /// Stops intake on every model, drains all accepted requests, joins all
  /// workers. Models remain registered for introspection (final stats,
  /// fingerprints); further submits throw. Idempotent.
  void shutdown();

  std::vector<std::string> model_names() const;
  ServerStats::Snapshot stats(const std::string& name) const;
  std::int64_t queue_depth(const std::string& name) const;
  /// Rung currently serving (pinned or controller-chosen).
  int current_step(const std::string& name) const;
  int ladder_size(const std::string& name) const;
  /// plan_fingerprint() of the plan currently installed at `step`.
  std::uint64_t rung_fingerprint(const std::string& name, int step) const;
  Shape sample_shape(const std::string& name) const;

 private:
  struct Model;

  /// Returns a shared handle so the Model outlives a concurrent
  /// remove_model for the duration of the caller's use.
  std::shared_ptr<Model> find(const std::string& name) const;
  void worker_loop(Model& m);
  void maybe_tick(Model& m);

  mutable std::mutex mutex_;  // guards models_ (the map, not the Models)
  std::map<std::string, std::shared_ptr<Model>> models_;
};

}  // namespace adq::serve
