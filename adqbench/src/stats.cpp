#include "stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace adqbench {

std::uint64_t SplitMix64::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double SplitMix64::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

namespace {

// 0-based index of the nearest-rank p-th percentile among n samples.
std::size_t rank_index(std::size_t n, double p) {
  if (n == 0) throw std::invalid_argument("percentile: no samples");
  if (!(p > 0.0 && p <= 100.0)) {
    throw std::invalid_argument("percentile: p must lie in (0, 100]");
  }
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  return static_cast<std::size_t>(std::max(1.0, rank)) - 1;
}

}  // namespace

double percentile(std::vector<double> samples, double p) {
  const std::size_t k = rank_index(samples.size(), p);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(k),
                   samples.end());
  return samples[k];
}

std::int64_t samples_beyond(std::int64_t n, double p) {
  if (n <= 0) return 0;
  return n - 1 - static_cast<std::int64_t>(
                     rank_index(static_cast<std::size_t>(n), p));
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

std::vector<double> poisson_schedule(std::uint64_t seed, double rate_per_s,
                                     double seconds) {
  if (!(rate_per_s > 0.0) || !(seconds > 0.0)) {
    throw std::invalid_argument("poisson_schedule: rate and seconds > 0");
  }
  // A Poisson process conditioned on n arrivals in the window: n + 1
  // exponential gaps, rescaled so they span exactly `seconds`.
  const auto n = static_cast<std::size_t>(std::llround(rate_per_s * seconds));
  SplitMix64 rng(seed);
  std::vector<double> due(n);
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    t += -std::log1p(-rng.uniform());
    due[i] = t;
  }
  t += -std::log1p(-rng.uniform());
  for (double& d : due) d *= seconds / t;
  return due;
}

double due_latency_ms(double submit_late_us, double server_total_us) {
  return (std::max(0.0, submit_late_us) + server_total_us) / 1000.0;
}

void Tally::add(Outcome outcome, double latency_ms, double limit_ms) {
  ++attempted;
  switch (outcome) {
    case Outcome::kOk:
      ++ok;
      if (latency_ms <= limit_ms) ++within_limit;
      break;
    case Outcome::kRefused: ++refused; break;
    case Outcome::kFailed: ++failed; break;
  }
}

double Tally::fail_frac() const {
  return attempted == 0 ? 0.0
                        : static_cast<double>(refused + failed) /
                              static_cast<double>(attempted);
}

double Tally::goodput_per_s(double span_seconds) const {
  return static_cast<double>(within_limit) / span_seconds;
}

}  // namespace adqbench
