// The benchmark's workloads and the per-layer sweep of the traced run.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace adqbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string plan_dir;  // scratch directory for the .adqplan files
};

struct Result {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;  // errors and wrong outputs (the gate)
  std::map<std::string, double> e2e;    // end-to-end metrics
  std::map<std::string, double> layer;  // per-layer metrics
  std::vector<std::string> failures;    // the first few, for the log

  bool correct() const { return failed == 0; }
  /// Counts one failed operation and keeps its description.
  void fail(const std::string& what);
};

Result run_offline_b32(const RunConfig& cfg);
Result run_serve_sparse_b1(const RunConfig& cfg);
Result run_serve_overload_swap(const RunConfig& cfg);
Result run_ad_train(const RunConfig& cfg);

/// The short serving and training probes the per-layer sweep uses for
/// layers the workload itself left idle: same code as the workloads, a
/// fraction of the duration, no end-to-end metrics.
void serve_probe(const RunConfig& cfg, Result& out);
void train_probe(const RunConfig& cfg, Result& out);

/// Traced run only: times each layer's public functions from outside and
/// fills every per-layer metric the workload did not already measure.
void layer_sweep(const RunConfig& cfg, Result& out);

/// Intra-op thread budget of every computing caller (the offline caller,
/// the trainer, each serving worker). The scheduler pool itself is sized
/// to the CPUs (ADQ_THREADS = nproc); the traced run measures its fan-out
/// separately. One thread per caller keeps every workload's runnable
/// threads within nproc and its timings steady on a shared host, where a
/// fork-join across every CPU waits on whichever CPU is stolen.
inline constexpr int kComputeThreadsPerCaller = 1;

}  // namespace adqbench
