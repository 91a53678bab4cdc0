// Registry-driven kernel conformance: randomized per-op cases comparing a
// backend against the portable reference (the ggml test-backend-ops idea).
//
// Every case is a pure function of (op, seed): the generator draws shapes,
// strides/padding, bit-widths (8/4/2, mixed across operands) and data from
// an Rng seeded with the case seed, runs the op on the portable table and
// on the backend under test, and compares — bit-exact for integer outputs
// and for the float outputs of the integer depthwise op and of sgemm, an
// NMSE bound for the other float outputs. Output buffers are
// sentinel-filled on both sides first, so stride gaps and out-of-bounds
// writes are caught, not just wrong values. A failing case reproduces from its printed seed alone:
//   ADQ_BACKEND=<name> test_backend_ops --seed=<seed> --op=<op>
//
// Consumers: tests/test_backend_ops.cpp (PR-gate conformance + fuzz +
// perf), bench/bench_micro.cpp (per-backend GMAC/s tables). Lives in
// src/backend/ so a new backend's author gets the harness by registering.
#pragma once

#include <cstdint>
#include <string>

#include "backend/backend.h"

namespace adq::backend {

/// Outcome of one randomized case.
struct CaseResult {
  bool ok = true;
  std::string desc;    // generated case, human-readable (shapes, bits, ...)
  std::string detail;  // on failure: first mismatch / error bound violation
  double max_err = 0.0;  // float ops: worst NMSE observed (0 for int ops)
};

/// Runs the seed's randomized case for `op` on `test`, comparing against
/// the portable reference. Deterministic in (op, seed).
CaseResult run_conformance_case(Op op, std::uint64_t seed, const Backend& test);

/// Directed integer-depthwise case: same machinery, but bits and stride are
/// pinned instead of drawn (the int8/int4/int2 x stride 1/2 matrix).
CaseResult run_depthwise_case(const Backend& test, std::uint64_t seed,
                              int bits, int stride);

/// The one-line reproduction command printed on any failure.
std::string repro_command(Op op, std::uint64_t seed, const Backend& test);

/// Throughput of `op` on `test` over a fixed representative workload.
/// MAC-counting ops (igemm, depthwise) report GMAC/s — for igemm, `bits`
/// caps the code range (8/4/2), matching how mixed-precision layers feed
/// it; sgemm reports GFLOP/s at a VGG training shape; bandwidth ops report
/// GB/s and ignore `bits`.
struct PerfSample {
  double value = 0.0;
  const char* unit = "GB/s";
};
PerfSample measure_perf(Op op, const Backend& test, int bits);

}  // namespace adq::backend
