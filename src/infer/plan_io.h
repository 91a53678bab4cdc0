// Compiled-plan serialization — the .adqplan format.
//
// save_plan() writes an InferencePlan to a versioned binary file:
// pre-quantized packed eqn-1 weight cells, the per-layer bit policy,
// folded BatchNorm epilogues, eqn-5 channel masks, the op list and its
// static activation-memory plan — everything IntInferenceEngine needs. load_plan() restores it, so a
// server process cold-starts from the file without retraining, rebuilding
// the model graph, or recompiling the plan.
//
// Layout (little-endian, as every target this repo builds on):
//
//   offset  size  field
//   0       8     magic "ADQPLAN\0"
//   8       4     u32 format version (kPlanFormatVersion)
//   12      4     u32 reserved flags (0)
//   16      N     payload: model name, arena bytes, float-baseline arena
//                 bytes, planned input shape, layers[], ops[] (see
//                 plan_io.cpp)
//   16+N    8     u64 FNV-1a checksum of the payload
//
// Loading verifies magic, version and checksum before parsing and throws
// std::runtime_error with a precise reason (bad magic / any version but
// the current one / truncation / checksum mismatch / no memory plan)
// otherwise. Serialization is
// deterministic: saving a plan, loading it, and saving again produces
// byte-identical files, which tests/test_plan_io.cpp asserts.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "infer/plan.h"

namespace adq::infer {

/// The .adqplan format version this build reads and writes. Bump it when
/// the payload layout changes; load_plan rejects every other version
/// (recompile the plan from its model).
constexpr std::uint32_t kPlanFormatVersion = 4;

/// Serializes the plan to a stream (binary).
void save_plan(const InferencePlan& plan, std::ostream& out);

/// Serializes the plan to a file. Throws std::runtime_error when the file
/// cannot be written.
void save_plan(const InferencePlan& plan, const std::string& path);

/// Parses a plan from a stream. Throws std::runtime_error on malformed
/// input (bad magic, a version other than kPlanFormatVersion, truncation,
/// checksum mismatch, a plan without a memory plan).
InferencePlan load_plan(std::istream& in);

/// Parses a plan from a file. Throws std::runtime_error when the file
/// cannot be read or is malformed.
InferencePlan load_plan(const std::string& path);

/// Identity of a compiled plan: FNV-1a over its serialized bytes (the
/// current-version save_plan output, header and checksum included).
/// Serialization is deterministic, so equal fingerprints mean byte-equal
/// plan files — the identity the serving registry's hot-swap validation
/// names in its errors and stamps on every InferenceResult.
std::uint64_t plan_fingerprint(const InferencePlan& plan);

}  // namespace adq::infer
