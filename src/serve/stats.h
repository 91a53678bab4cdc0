// Thread-safe serving statistics aggregator.
//
// Workers record one entry per completed batch (size, queue depth behind
// it) and one per completed request (queue-wait, execution, and end-to-end
// latency, plus the precision-ladder rung that served it). snapshot()
// folds everything into the numbers an operator watches: tail latencies
// (end-to-end p50/p95/p99 AND the queue-wait/execution split at p50/p99,
// so an SLO breach is attributable to congestion vs compute), mean queue
// time, request/batch counts, the batch-size histogram (the direct
// evidence of how well the batcher is coalescing), the high-water queue
// depth, the live precision mix (requests served per ladder rung,
// step-down/step-up transition counts, current rung), and the static
// memory contract — the per-sample activation arena of the compiled plan
// and its per-worker bound at the batch cap (arena x max_batch, exact for
// the planned activation slots; per-thread kernel scratch — activation
// code buffers, im2col slabs, GEMM accumulators — is additional), set once
// by the server at construction.
//
// recent_p99_us() serves the SLO controller: the p99 over a sliding
// window of the latest completions, so the ladder reacts to current
// pressure rather than the lifetime distribution.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

namespace adq::serve {

class ServerStats {
 public:
  struct Snapshot {
    std::uint64_t requests = 0;
    std::uint64_t batches = 0;
    double p50_us = 0.0, p95_us = 0.0, p99_us = 0.0;  // end-to-end latency
    // Attributable split: time spent waiting in the queue (enqueue ->
    // batch formation) vs executing (batch formation -> completion).
    double p50_queue_us = 0.0, p99_queue_us = 0.0;
    double p50_exec_us = 0.0, p99_exec_us = 0.0;
    double mean_total_us = 0.0;
    double mean_queue_us = 0.0;
    double mean_batch = 0.0;  // requests / batches
    std::int64_t max_queue_depth = 0;
    // (batch size, count), ascending by size.
    std::vector<std::pair<std::int64_t, std::uint64_t>> batch_histogram;
    // Precision ladder: (rung, requests served on it), ascending by rung —
    // the live precision mix. Empty until a request completes. A plain
    // InferenceServer serves everything on rung 0.
    std::vector<std::pair<int, std::uint64_t>> precision_mix;
    std::uint64_t step_downs = 0;  // transitions toward cheaper precision
    std::uint64_t step_ups = 0;    // transitions back toward rung 0
    int current_step = 0;
    // Static memory contract (0 until set_memory_contract runs): the
    // planned activation-slot footprint; kernel scratch is extra.
    std::int64_t arena_bytes_per_sample = 0;
    std::int64_t peak_activation_bytes_per_worker = 0;  // arena x max_batch
    // Activation-compression contract: what the same slots would occupy
    // stored as float words (the plan's arena_bytes_u8 baseline; equals
    // arena_bytes_per_sample when nothing packs) and the slot mix as
    // (storage cell width, slot-owning ops) pairs, ascending — cell 0 =
    // float slots, 1/2/4/8 = packed sub-byte/byte cells.
    std::int64_t arena_bytes_u8_per_sample = 0;
    std::vector<std::pair<int, int>> act_cell_histogram;
    // Scheduler occupancy: pool size, instantaneous busy workers / live
    // parallel jobs at snapshot time, and the peaks observed at batch
    // completions — the direct evidence that serving workers overlap
    // compute instead of serializing behind a global region lock.
    int pool_threads = 1;
    int pool_busy_workers = 0;
    int pool_live_jobs = 0;
    int pool_busy_peak = 0;
    int pool_live_jobs_peak = 0;
  };

  void record_batch(std::int64_t batch_size, std::int64_t queue_depth_after);

  /// One completed request: queue-wait, execution, end-to-end latency, and
  /// the ladder rung that served it (0 for single-plan servers).
  void record_request(double queue_us, double exec_us, double total_us,
                      int ladder_step = 0);

  /// One ladder transition (from != to); keeps the direction counters and
  /// the published current rung.
  void record_transition(int from_step, int to_step);

  /// Publishes the rung without a transition (initial rung / pinned rung).
  void set_current_step(int step);

  /// p99 end-to-end latency over the newest kRecentWindow completions —
  /// the SLO controller's pressure signal. 0 before any completion.
  double recent_p99_us() const;

  /// Records the engine's planned activation footprint (per sample), the
  /// per-worker worst case at the server's batch cap, the float-storage
  /// baseline footprint, and the per-cell-width slot mix (index = cell
  /// bits, value = slot-owning ops). Called once by the server
  /// constructor.
  void set_memory_contract(std::int64_t arena_bytes_per_sample,
                           std::int64_t peak_bytes_per_worker,
                           std::int64_t arena_bytes_u8_per_sample = 0,
                           const std::array<int, 9>& act_cells = {});

  Snapshot snapshot() const;
  void reset();

 private:
  // Latency samples are capped so an unbounded soak cannot grow memory;
  // counts and means keep aggregating past the cap, percentiles then
  // reflect the first kMaxSamples requests.
  static constexpr std::size_t kMaxSamples = 1 << 20;
  // Sliding window behind recent_p99_us(): big enough to smooth one odd
  // batch, small enough to track a load transient within tens of batches.
  static constexpr std::size_t kRecentWindow = 256;

  mutable std::mutex mutex_;
  std::vector<double> total_us_;
  std::vector<double> queue_lat_us_;
  std::vector<double> exec_lat_us_;
  double recent_total_us_[kRecentWindow] = {};
  std::size_t recent_count_ = 0;  // total ever pushed into the ring
  double total_us_sum_ = 0.0;
  double queue_us_sum_ = 0.0;
  std::uint64_t requests_ = 0;
  std::uint64_t batches_ = 0;
  std::int64_t max_depth_ = 0;
  std::map<std::int64_t, std::uint64_t> histogram_;
  std::map<int, std::uint64_t> step_requests_;
  std::uint64_t step_downs_ = 0;
  std::uint64_t step_ups_ = 0;
  int current_step_ = 0;
  std::int64_t arena_bytes_per_sample_ = 0;
  std::int64_t peak_bytes_per_worker_ = 0;
  std::int64_t arena_bytes_u8_per_sample_ = 0;
  std::array<int, 9> act_cells_ = {};
  int pool_busy_peak_ = 0;
  int pool_live_jobs_peak_ = 0;
};

}  // namespace adq::serve
