// In-memory span recorder for the traced run.
//
// Spans are recorded from the benchmark's own code around calls into each
// layer's public functions (the program itself is not instrumented). They
// stay in memory and are written once, at exit, as Chrome trace-event JSON
// (Perfetto and chrome://tracing open it). Per-layer self time is a span's
// duration minus the part of it its child spans on the same thread cover.
// When tracing is off, ScopedSpan costs one relaxed atomic load.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace adqbench {

struct Span {
  std::string name;      // e.g. "infer.forward_into"
  std::string layer;     // module name: serve, infer, backend, ...
  int tid = 0;           // recording thread (small dense id)
  double ts_us = 0.0;    // start, microseconds since the tracer origin
  double dur_us = 0.0;
  std::uint64_t id = 0;  // request id for async request spans, else 0
  bool async = false;    // request spans overlap; drawn on their own track
};

struct SelfTime {
  std::string name;
  std::string layer;
  std::int64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

class Tracer {
 public:
  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Microseconds since the tracer origin.
  double now_us() const;
  /// Converts a steady_clock time point to tracer microseconds.
  double to_us(std::chrono::steady_clock::time_point t) const;

  /// Records a completed span on the calling thread (no-op when disabled).
  void add(const std::string& name, const std::string& layer, double ts_us,
           double dur_us);
  /// Records an async span (overlapping, keyed by `id`).
  void add_async(const std::string& name, const std::string& layer,
                 std::uint64_t id, double ts_us, double dur_us);

  std::vector<Span> spans() const;

 private:
  std::chrono::steady_clock::time_point origin_;
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;  // guards spans_
  std::vector<Span> spans_;
};

/// The process-wide tracer the benchmark records into.
Tracer& tracer();

/// Small dense id of the calling thread (0 for the first thread to ask).
int thread_index();

/// Records [construction, destruction) as one span when tracing is on.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, const char* layer);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  const char* layer_;
  double start_us_ = -1.0;
};

/// Chrome trace-event JSON ("X" complete events, "b"/"e" async pairs).
std::string chrome_trace_json(const std::vector<Span>& spans);

/// Per span name: count, total and self time. Self time subtracts the
/// children each synchronous span covers on its own thread; async spans
/// keep their full duration as self time.
std::vector<SelfTime> self_times(const std::vector<Span>& spans);

/// Escapes a string for a JSON string literal.
std::string json_escape(const std::string& s);

}  // namespace adqbench
