#include "backend/registry.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "backend/igemm_kernels.h"
#include "backend/ops_portable.h"

namespace adq::backend {
namespace {

// Each SIMD tier starts from the portable table and overrides the slots it
// has a vector kernel for; everything else stays portable. Both avx2 and
// vnni override igemm, igemm_w4, igemm_w2, im2col_u8, depthwise_int,
// quantize_act, act_pack, act_unpack and sgemm (vnni with its own integer
// GEMMs, and the AVX2 kernels for the rest). A newly overridden slot is
// covered by the conformance harness automatically.
const Backend& avx2_backend() {
  static const Backend b = [] {
    Backend t = portable_backend();
    t.name = "avx2";
    t.available = igemm_avx2_available();
    t.igemm = &igemm_u8_avx2;
    t.igemm_w4 = &igemm_u8w4_avx2;
    t.igemm_w2 = &igemm_u8w2_avx2;
    t.im2col_u8 = &im2col_u8_avx2;
    t.depthwise_int = &depthwise_int_avx2;
    t.quantize_act = &quantize_act_avx2;
    t.act_pack = &act_pack_avx2;
    t.act_unpack = &act_unpack_avx2;
    t.sgemm = &sgemm_avx2;
    return t;
  }();
  return b;
}

const Backend& vnni_backend() {
  static const Backend b = [] {
    Backend t = portable_backend();
    t.name = "vnni";
    t.available = igemm_vnni_available();
    t.igemm = &igemm_u8_vnni;
    t.igemm_w4 = &igemm_u8w4_vnni;
    t.igemm_w2 = &igemm_u8w2_vnni;
    // The AVX2 lowering, depthwise, activation quantize/pack/unpack and
    // float GEMM kernels are a strict subset of the VNNI ISA, so the VNNI
    // tier reuses them rather than duplicating the kernels.
    t.im2col_u8 = &im2col_u8_avx2;
    t.depthwise_int = &depthwise_int_avx2;
    t.quantize_act = &quantize_act_avx2;
    t.act_pack = &act_pack_avx2;
    t.act_unpack = &act_unpack_avx2;
    t.sgemm = &sgemm_avx2;
    return t;
  }();
  return b;
}

// Test-only override (see registry.h): lets one process run engines under
// several backends even though active() latches its env resolve.
std::atomic<const Backend*> g_override{nullptr};

std::string roster_message() {
  std::string msg = "registered backends:";
  for (const Backend* b : all_backends()) {
    msg += " ";
    msg += b->name;
    msg += b->available ? " (available)" : " (unavailable on this host)";
  }
  return msg;
}

[[noreturn]] void fail_selection(const std::string& what) {
  throw std::runtime_error("backend: " + what + "; " + roster_message());
}

}  // namespace

const std::vector<const Backend*>& all_backends() {
  // Ascending preference; portable must stay first (the reference and the
  // fallback when no SIMD tier is available).
  static const std::vector<const Backend*> all = {
      &portable_backend(), &avx2_backend(), &vnni_backend()};
  return all;
}

std::vector<const Backend*> available_backends() {
  std::vector<const Backend*> out;
  for (const Backend* b : all_backends()) {
    if (b->available) out.push_back(b);
  }
  return out;
}

const Backend* find_backend(const char* name) {
  if (name == nullptr) return nullptr;
  for (const Backend* b : all_backends()) {
    if (std::strcmp(b->name, name) == 0) return b;
  }
  return nullptr;
}

const Backend& resolve_backends_env(const char* requested) {
  if (requested != nullptr) {
    const Backend* b = find_backend(requested);
    if (b == nullptr) {
      fail_selection(std::string("unknown ADQ_BACKEND '") + requested + "'");
    }
    if (!b->available) {
      fail_selection(std::string("backend '") + requested +
                     "' is not available on this host");
    }
    return *b;
  }
  // Unpinned: best available = last available in registration order.
  const Backend* best = &portable_backend();
  for (const Backend* b : all_backends()) {
    if (b->available) best = b;
  }
  return *best;
}

const Backend& active() {
  const Backend* forced = g_override.load(std::memory_order_acquire);
  if (forced != nullptr) return *forced;
  // Cached on first successful resolve; a throwing resolve (bad pin) is NOT
  // cached, so every call keeps failing loudly rather than latching a
  // half-initialised state.
  static const Backend& b = resolve_backends_env(std::getenv("ADQ_BACKEND"));
  return b;
}

const Backend* exchange_backend_override(const Backend* backend) {
  return g_override.exchange(backend, std::memory_order_acq_rel);
}

const char* op_name(Op op) {
  switch (op) {
    case Op::kIgemm: return "igemm";
    case Op::kIgemmW4: return "igemm_u8w4";
    case Op::kIgemmW2: return "igemm_u8w2";
    case Op::kIm2colU8: return "im2col_u8";
    case Op::kIm2colF32: return "im2col_f32";
    case Op::kDepthwiseInt: return "depthwise_int";
    case Op::kDepthwiseF32: return "depthwise_f32";
    case Op::kQuantizeAct: return "quantize_act";
    case Op::kFakeQuant: return "fake_quant";
    case Op::kDequantize: return "dequantize";
    case Op::kEpilogue: return "epilogue";
    case Op::kResidualAdd: return "residual_add";
    case Op::kBitpack: return "bitpack";
    case Op::kActPack: return "act_pack";
    case Op::kActUnpack: return "act_unpack";
    case Op::kSgemm: return "sgemm";
  }
  return "?";
}

bool op_from_name(const char* name, Op* out) {
  if (name == nullptr) return false;
  for (Op op : kAllOps) {
    if (std::strcmp(op_name(op), name) == 0) {
      *out = op;
      return true;
    }
  }
  return false;
}

}  // namespace adq::backend
