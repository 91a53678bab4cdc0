#include "serve/registry.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <utility>

#include "infer/engine.h"
#include "infer/plan_io.h"
#include "serve/batcher.h"
#include "serve/server.h"
#include "tensor/ops.h"
#include "tensor/parallel.h"

namespace adq::serve {
namespace {

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

std::string hex_fingerprint(std::uint64_t fp) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(fp));
  return buf;
}

/// Batch-axis-free sample shape the plan's memory plan was computed
/// against — the registry's admission contract for the model.
Shape plan_sample_shape(const infer::InferencePlan& plan) {
  const infer::PlannedInput& pi = plan.planned_input;
  if (pi.rank == 3) return Shape{pi.channels, pi.height, pi.width};
  if (pi.rank == 1) return Shape{pi.channels};
  throw std::invalid_argument(
      "registry: plan '" + plan.model_name +
      "' carries no planned input shape (no memory plan)");
}

/// Output dimension (elements per sample of the final op) simulated from
/// the planned input — what hot-swap compatibility compares.
std::int64_t plan_output_elems(const infer::InferencePlan& plan) {
  const std::vector<std::int64_t> elems = plan.op_out_elems();
  if (elems.empty()) {
    throw std::invalid_argument("registry: plan '" + plan.model_name +
                                "' has no ops");
  }
  return elems.back();
}

}  // namespace

/// One rung of a model's precision ladder. Immutable once built; workers
/// hold a shared_ptr per batch, so a hot swap retires the old rung only
/// after its last in-flight batch completes.
struct Rung {
  std::uint64_t fingerprint;
  infer::IntInferenceEngine engine;
  Rung(std::uint64_t fp, infer::InferencePlan plan)
      : fingerprint(fp), engine(std::move(plan)) {}
};

struct ModelRegistry::Model {
  std::string name;
  ModelConfig cfg;
  Shape sample_shape;
  std::int64_t out_elems = 0;
  RequestQueue queue;
  DynamicBatcher batcher;
  ServerStats stats;
  // rungs_mutex guards the rung POINTERS only; engines themselves are
  // immutable and thread-safe, and no forward runs under this lock.
  mutable std::mutex rungs_mutex;
  std::vector<std::shared_ptr<const Rung>> rungs;
  std::mutex ctrl_mutex;  // controller state + last_tick
  LadderController controller;
  int pinned = -1;  // >= 0: controller bypassed, serve this rung
  std::atomic<int> step{0};
  Clock::time_point last_tick;
  std::atomic<std::uint64_t> completed_seq{0};
  std::vector<std::thread> workers;
  std::mutex stop_mutex;
  bool joined = false;

  Model(std::string model_name, ModelConfig config, int num_steps)
      : name(std::move(model_name)),
        cfg(config),
        batcher(queue, BatchPolicy{cfg.max_batch, cfg.max_wait_us}),
        controller(num_steps, cfg.slo),
        last_tick(Clock::now()) {}

  /// Stops intake (failing still-queued requests when not draining),
  /// lets workers finish, joins them. Idempotent.
  void stop(bool drain) {
    std::lock_guard<std::mutex> lock(stop_mutex);
    if (drain) {
      queue.close();
    } else {
      queue.fail_pending("serve: model '" + name +
                         "' removed before the request ran");
    }
    if (joined) return;
    for (std::thread& w : workers) w.join();
    workers.clear();
    joined = true;
  }
};

ModelRegistry::ModelRegistry() = default;

ModelRegistry::~ModelRegistry() { shutdown(); }

void ModelRegistry::add_model(const std::string& name,
                              std::vector<infer::InferencePlan> ladder,
                              ModelConfig config) {
  if (ladder.empty()) {
    throw std::invalid_argument("registry: model '" + name +
                                "' needs at least one plan in its ladder");
  }
  if (config.workers < 1) {
    throw std::invalid_argument("registry: workers must be >= 1");
  }
  if (config.threads_per_worker < 0) {
    throw std::invalid_argument("registry: threads_per_worker must be >= 0");
  }
  if (config.tick_interval_us < 0 || config.shed_queue_depth < 0) {
    throw std::invalid_argument(
        "registry: tick_interval_us and shed_queue_depth must be >= 0");
  }
  if (config.use_env) {
    config.slo = slo_from_env(config.slo);
    if (std::getenv("ADQ_LADDER") != nullptr) {
      config.pin_step = pinned_step_from_env();
    }
    const int env_budget = threads_per_worker_from_env();
    if (env_budget > 0) config.threads_per_worker = env_budget;
  }
  const int num_steps = static_cast<int>(ladder.size());
  if (config.pin_step >= num_steps) config.pin_step = num_steps - 1;

  auto model = std::make_shared<Model>(name, config, num_steps);
  model->sample_shape = plan_sample_shape(ladder[0]);
  model->out_elems = plan_output_elems(ladder[0]);
  model->rungs.reserve(ladder.size());
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    const std::uint64_t fp = infer::plan_fingerprint(ladder[i]);
    if (i > 0) {
      const Shape shape = plan_sample_shape(ladder[i]);
      const std::int64_t out = plan_output_elems(ladder[i]);
      if (shape != model->sample_shape || out != model->out_elems) {
        throw std::invalid_argument(
            "registry: model '" + name + "' ladder rung " + std::to_string(i) +
            " is incompatible with rung 0: input shape " + shape.to_string() +
            " vs " + model->sample_shape.to_string() + ", output dim " +
            std::to_string(out) + " vs " + std::to_string(model->out_elems) +
            " (rung-0 fingerprint " +
            hex_fingerprint(model->rungs[0]->fingerprint) + ", rung-" +
            std::to_string(i) + " fingerprint " + hex_fingerprint(fp) + ")");
      }
    }
    model->rungs.push_back(std::make_shared<Rung>(fp, std::move(ladder[i])));
  }
  const infer::IntInferenceEngine& e0 = model->rungs[0]->engine;
  model->stats.set_memory_contract(
      e0.arena_bytes_per_sample(), e0.peak_activation_bytes(config.max_batch),
      e0.arena_bytes_u8_per_sample(), e0.act_cell_histogram());
  model->pinned = config.pin_step;
  const int initial = config.pin_step >= 0 ? config.pin_step : 0;
  model->step.store(initial, std::memory_order_relaxed);
  model->stats.set_current_step(initial);

  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (models_.count(name) != 0) {
      throw std::invalid_argument("registry: model '" + name +
                                  "' is already registered");
    }
    models_.emplace(name, model);
  }
  Model* m = model.get();
  m->workers.reserve(static_cast<std::size_t>(config.workers));
  for (int i = 0; i < config.workers; ++i) {
    m->workers.emplace_back([this, m] { worker_loop(*m); });
  }
}

void ModelRegistry::add_model(const std::string& name,
                              const std::vector<std::string>& plan_paths,
                              ModelConfig config) {
  std::vector<infer::InferencePlan> ladder;
  ladder.reserve(plan_paths.size());
  for (const std::string& path : plan_paths) {
    ladder.push_back(infer::load_plan(path));
  }
  add_model(name, std::move(ladder), std::move(config));
}

std::shared_ptr<ModelRegistry::Model> ModelRegistry::find(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = models_.find(name);
  if (it == models_.end()) {
    throw std::out_of_range("registry: no model named '" + name + "'");
  }
  return it->second;
}

std::future<InferenceResult> ModelRegistry::submit(const std::string& name,
                                                   Tensor sample) {
  const std::shared_ptr<Model> m = find(name);
  if (sample.shape() != m->sample_shape) {
    throw std::invalid_argument(
        "registry: sample shape " + sample.shape().to_string() +
        " does not match model '" + name + "' input " +
        m->sample_shape.to_string());
  }
  if (m->cfg.shed_queue_depth > 0 &&
      m->queue.depth() >= m->cfg.shed_queue_depth) {
    throw ServerOverloaded("registry: model '" + name + "' shedding at queue depth " +
                           std::to_string(m->cfg.shed_queue_depth));
  }
  return m->queue.push(std::move(sample));
}

void ModelRegistry::hot_swap(const std::string& name, int step,
                             infer::InferencePlan plan) {
  const std::shared_ptr<Model> m = find(name);
  std::uint64_t incumbent_fp = 0;
  {
    std::lock_guard<std::mutex> lock(m->rungs_mutex);
    if (step < 0 || static_cast<std::size_t>(step) >= m->rungs.size()) {
      throw std::out_of_range("registry: model '" + name + "' has no rung " +
                              std::to_string(step));
    }
    incumbent_fp = m->rungs[static_cast<std::size_t>(step)]->fingerprint;
  }
  const std::uint64_t candidate_fp = infer::plan_fingerprint(plan);
  const Shape shape = plan_sample_shape(plan);
  const std::int64_t out = plan_output_elems(plan);
  if (shape != m->sample_shape || out != m->out_elems) {
    throw std::invalid_argument(
        "registry: refusing hot swap of model '" + name + "' rung " +
        std::to_string(step) + ": candidate input shape " + shape.to_string() +
        " / output dim " + std::to_string(out) +
        " differs from the incumbent's " + m->sample_shape.to_string() +
        " / " + std::to_string(m->out_elems) + " (incumbent fingerprint " +
        hex_fingerprint(incumbent_fp) + ", candidate fingerprint " +
        hex_fingerprint(candidate_fp) + ")");
  }
  // Build the new engine OUTSIDE the rung lock (construction repacks
  // weights — milliseconds), then swap the pointer. Workers that already
  // copied the old shared_ptr finish their batch on it; the old engine is
  // destroyed when the last of them releases it.
  auto incoming = std::make_shared<const Rung>(candidate_fp, std::move(plan));
  {
    std::lock_guard<std::mutex> lock(m->rungs_mutex);
    m->rungs[static_cast<std::size_t>(step)] = std::move(incoming);
  }
}

void ModelRegistry::hot_swap(const std::string& name, int step,
                             const std::string& plan_path) {
  hot_swap(name, step, infer::load_plan(plan_path));
}

void ModelRegistry::remove_model(const std::string& name, bool drain) {
  std::shared_ptr<Model> m;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = models_.find(name);
    if (it == models_.end()) {
      throw std::out_of_range("registry: no model named '" + name + "'");
    }
    m = std::move(it->second);
    models_.erase(it);
  }
  m->stop(drain);
}

void ModelRegistry::shutdown() {
  // Models stay in the map — stopped, but still queryable (final stats,
  // fingerprints) — only remove_model forgets a name.
  std::vector<std::shared_ptr<Model>> all;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [name, model] : models_) all.push_back(model);
  }
  for (auto& m : all) m->stop(/*drain=*/true);
}

std::vector<std::string> ModelRegistry::model_names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(models_.size());
  for (const auto& [name, model] : models_) names.push_back(name);
  return names;
}

ServerStats::Snapshot ModelRegistry::stats(const std::string& name) const {
  return find(name)->stats.snapshot();
}

std::int64_t ModelRegistry::queue_depth(const std::string& name) const {
  return find(name)->queue.depth();
}

int ModelRegistry::current_step(const std::string& name) const {
  return find(name)->step.load(std::memory_order_relaxed);
}

int ModelRegistry::ladder_size(const std::string& name) const {
  const std::shared_ptr<Model> m = find(name);
  std::lock_guard<std::mutex> lock(m->rungs_mutex);
  return static_cast<int>(m->rungs.size());
}

std::uint64_t ModelRegistry::rung_fingerprint(const std::string& name,
                                              int step) const {
  const std::shared_ptr<Model> m = find(name);
  std::lock_guard<std::mutex> lock(m->rungs_mutex);
  if (step < 0 || static_cast<std::size_t>(step) >= m->rungs.size()) {
    throw std::out_of_range("registry: model '" + name + "' has no rung " +
                            std::to_string(step));
  }
  return m->rungs[static_cast<std::size_t>(step)]->fingerprint;
}

Shape ModelRegistry::sample_shape(const std::string& name) const {
  return find(name)->sample_shape;
}

void ModelRegistry::worker_loop(Model& m) {
  // Each worker caps its forwards' parallel_for fan-out to its share of
  // the scheduler pool; N models x N workers then partition the machine
  // instead of oversubscribing it (see ScopedThreadBudget).
  const ScopedThreadBudget budget(
      resolve_worker_budget(m.cfg.threads_per_worker, m.cfg.workers));
  for (;;) {
    std::vector<Request> batch = m.batcher.next_batch();
    if (batch.empty()) return;  // closed and drained
    const Clock::time_point formed = Clock::now();
    // The rung is chosen ONCE per batch: copy the shared handle, never
    // hold the rung lock across the forward. A concurrent hot swap or
    // ladder transition affects the NEXT batch.
    const int step = m.step.load(std::memory_order_relaxed);
    std::shared_ptr<const Rung> rung;
    {
      std::lock_guard<std::mutex> lock(m.rungs_mutex);
      rung = m.rungs[static_cast<std::size_t>(step)];
    }
    std::size_t completed = 0;  // promises already satisfied with a value
    try {
      std::vector<const Tensor*> samples;
      samples.reserve(batch.size());
      for (const Request& req : batch) samples.push_back(&req.sample);
      const Tensor x = stack_samples(samples);  // batched copy-in
      const Tensor logits = rung->engine.forward(x);
      const std::vector<std::int64_t> top1 = argmax_rows(logits);
      m.stats.record_batch(static_cast<std::int64_t>(batch.size()),
                           m.queue.depth());
      const Clock::time_point done = Clock::now();
      for (std::size_t i = 0; i < batch.size(); ++i) {
        Request& req = batch[i];
        InferenceResult r;
        r.id = req.id;
        r.sequence = m.completed_seq.fetch_add(1, std::memory_order_relaxed);
        r.logits = take_sample(logits, static_cast<std::int64_t>(i));
        r.top1 = top1[i];
        r.batch_size = static_cast<std::int64_t>(batch.size());
        r.queue_us = us_between(req.enqueued, formed);
        r.exec_us = us_between(formed, done);
        r.total_us = us_between(req.enqueued, done);
        r.ladder_step = step;
        r.plan_fingerprint = rung->fingerprint;
        m.stats.record_request(r.queue_us, r.exec_us, r.total_us, step);
        req.promise.set_value(std::move(r));
        ++completed;
      }
    } catch (...) {
      // A failed batch must not strand its requests: forward the
      // exception to every future not already satisfied (touching a
      // satisfied promise again would throw out of this handler and take
      // the worker down) and keep serving.
      for (std::size_t i = completed; i < batch.size(); ++i) {
        batch[i].promise.set_exception(std::current_exception());
      }
    }
    maybe_tick(m);
  }
}

void ModelRegistry::maybe_tick(Model& m) {
  if (m.pinned >= 0) return;
  std::lock_guard<std::mutex> lock(m.ctrl_mutex);
  const Clock::time_point now = Clock::now();
  if (us_between(m.last_tick, now) <
      static_cast<double>(m.cfg.tick_interval_us)) {
    return;
  }
  m.last_tick = now;
  const int prev = m.controller.step();
  const int next = m.controller.on_tick(m.stats.recent_p99_us(),
                                        m.queue.depth());
  if (next != prev) {
    m.step.store(next, std::memory_order_relaxed);
    m.stats.record_transition(prev, next);
  }
}

}  // namespace adq::serve
