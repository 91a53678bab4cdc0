// Measurement arithmetic shared by every workload: nearest-rank
// percentiles, the seeded open-loop arrival schedule, due-time latency and
// the goodput / failure accounting. Pure functions, unit-tested in
// adqbench/tests.
#pragma once

#include <cstdint>
#include <vector>

namespace adqbench {

/// SplitMix64: a tiny, fully specified generator, so the same seed gives
/// the same inputs and arrivals with any standard library.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform double in [0, 1) with 53 random bits.
  double uniform();

 private:
  std::uint64_t state_;
};

/// Nearest-rank percentile (p in (0, 100]): the smallest sample with at
/// least p% of all samples at or below it. Throws std::invalid_argument on
/// an empty sample set or p outside (0, 100].
double percentile(std::vector<double> samples, double p);

/// Samples that lie strictly above the nearest-rank percentile position
/// n - ceil(p/100 * n): how many samples a reported tail rests on.
std::int64_t samples_beyond(std::int64_t n, double p);

/// Median of the samples (nearest-rank p50).
double median(std::vector<double> samples);

/// Open-loop Poisson arrivals: exactly round(rate * seconds) offsets in
/// seconds from the schedule start, ascending, all < `seconds` — a Poisson
/// process conditioned on its count, so every seed offers the same load
/// and only the arrival pattern varies. Exponential gaps by inverse CDF
/// over SplitMix64(seed): a pure function of its arguments.
std::vector<double> poisson_schedule(std::uint64_t seed, double rate_per_s,
                                     double seconds);

/// Latency of one open-loop request timed from when it was DUE: how late
/// the generator submitted it (its own clock) plus the server's
/// enqueue-to-completion time. In milliseconds.
double due_latency_ms(double submit_late_us, double server_total_us);

/// What happened to one attempted request.
enum class Outcome {
  kOk,       // completed, outputs checked correct
  kRefused,  // admission control refused it (ServerOverloaded)
  kFailed,   // threw, or its outputs failed a check
};

/// Tally of a run's requests against a latency limit.
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t ok = 0;
  std::int64_t refused = 0;
  std::int64_t failed = 0;
  std::int64_t within_limit = 0;  // ok AND latency <= limit

  void add(Outcome outcome, double latency_ms, double limit_ms);
  /// (refused + failed) / attempted; 0 when nothing was attempted.
  double fail_frac() const;
  /// Requests completed correctly within the limit per second of `span`
  /// (from the schedule start to the last completion).
  double goodput_per_s(double span_seconds) const;
};

}  // namespace adqbench
