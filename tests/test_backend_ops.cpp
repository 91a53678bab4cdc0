// Registry-driven kernel conformance harness (the ggml test-backend-ops
// idea): every op in backend::kAllOps runs randomized cases on every
// registered backend against the portable reference — bit-exact for integer
// ops and for the float outputs of depthwise_int and sgemm (served logits
// and training runs are byte-identical on every backend), NMSE-bounded for
// the other float ops, which every backend shares with portable. Cases are pure functions of
// (op, seed), so any failure reproduces from the one-line command the
// harness prints:
//
//   ADQ_BACKEND=<name> test_backend_ops --seed=<seed> --op=<op>
//
// Modes (flags are consumed before InitGoogleTest, so they compose with
// --gtest_filter):
//   --seed=N   run only case seed N (the repro path)
//   --op=NAME  restrict to one op (igemm, depthwise_int, sgemm, ...)
//   --fuzz=N   add N extra cases per op per backend from a random_device
//              base seed (printed, so the whole run is reproducible)
//   --perf     skip tests; time every op on every available backend and
//              write BENCH_bench_backend_ops.json (GMAC/s for MAC ops at
//              8/4/2 bits, GFLOP/s for sgemm, GB/s for bandwidth ops)
//
// ADQ_BACKEND pins the backend under test; unset, all available backends
// are driven. Coverage lives in src/backend/conformance.cpp — this file is
// only the driver, so bench_micro and future tools share the same cases.
#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "backend/conformance.h"
#include "backend/registry.h"
#include "bench/common.h"

namespace {

using adq::backend::Backend;
using adq::backend::CaseResult;
using adq::backend::kAllOps;
using adq::backend::Op;
using adq::backend::op_from_name;
using adq::backend::op_name;
using adq::backend::repro_command;
using adq::backend::run_conformance_case;
using adq::backend::run_depthwise_case;

// The PR-gate floor: every op x backend pair sees at least this many
// randomized cases on every run (seeds 1..kGateCases, deterministic).
constexpr std::uint64_t kGateCases = 200;

struct Options {
  bool have_seed = false;
  std::uint64_t seed = 0;
  bool have_op = false;
  Op op = Op::kIgemm;
  std::uint64_t fuzz = 0;
  bool perf = false;
};
Options g_opts;

/// Backends the suite drives: the pinned one when ADQ_BACKEND / ADQ_SIMD is
/// set (so the printed repro command re-tests exactly the failing backend),
/// otherwise everything available on this host. Portable-vs-portable rides
/// along as a free determinism check on the case generator.
std::vector<const Backend*> backends_under_test() {
  if (std::getenv("ADQ_BACKEND") != nullptr ||
      std::getenv("ADQ_SIMD") != nullptr) {
    return {&adq::backend::active()};
  }
  return adq::backend::available_backends();
}

std::vector<Op> ops_under_test() {
  if (g_opts.have_op) return {g_opts.op};
  return std::vector<Op>(std::begin(kAllOps), std::end(kAllOps));
}

/// Runs one case and turns a failure into a gtest failure carrying the
/// generated-case description and the copy-paste repro line.
void expect_case_ok(Op op, std::uint64_t seed, const Backend& bk) {
  const CaseResult r = run_conformance_case(op, seed, bk);
  if (r.ok) return;
  ADD_FAILURE() << "backend '" << bk.name << "' diverges from portable on "
                << op_name(op) << " seed " << seed << "\n  case:   " << r.desc
                << "\n  detail: " << r.detail
                << "\n  repro:  " << repro_command(op, seed, bk);
}

TEST(BackendOps, ConformanceEveryOpEveryBackend) {
  const auto backends = backends_under_test();
  ASSERT_FALSE(backends.empty());
  for (const Backend* bk : backends) {
    for (Op op : ops_under_test()) {
      if (g_opts.have_seed) {
        expect_case_ok(op, g_opts.seed, *bk);
        continue;
      }
      for (std::uint64_t seed = 1; seed <= kGateCases; ++seed) {
        expect_case_ok(op, seed, *bk);
      }
    }
  }
}

// Directed integer-depthwise coverage: the int8/int4/int2 x stride 1/2
// matrix the mixed-precision models actually execute, with everything else
// (channels, kernel, padding, masked channels, batch) still randomized.
TEST(BackendOps, DepthwiseIntBitwidthStrideMatrix) {
  if (g_opts.have_seed || g_opts.have_op) {
    GTEST_SKIP() << "--seed/--op repro runs skip the directed matrix";
  }
  constexpr int kBits[] = {8, 4, 2};
  constexpr int kStrides[] = {1, 2};
  constexpr std::uint64_t kSeedsPerCell = 25;
  for (const Backend* bk : backends_under_test()) {
    for (int bits : kBits) {
      for (int stride : kStrides) {
        for (std::uint64_t seed = 1; seed <= kSeedsPerCell; ++seed) {
          const CaseResult r = run_depthwise_case(*bk, seed, bits, stride);
          if (r.ok) continue;
          ADD_FAILURE() << "backend '" << bk->name
                        << "' diverges from portable on depthwise_int (int"
                        << bits << ", stride " << stride << ") seed " << seed
                        << "\n  case:   " << r.desc
                        << "\n  detail: " << r.detail << "\n  repro:  "
                        << repro_command(Op::kDepthwiseInt, seed, *bk)
                        << "  (directed: bits=" << bits
                        << " stride=" << stride << ")";
        }
      }
    }
  }
}

// Engine-scale depthwise: the five MobileNet-small (width 0.25) depthwise
// geometries at batch 2 and int8/int4/int2 codes, plus one plane wider and
// taller than the AVX2 kernel's staging window (column tiles + row bands).
// Every variant must be bitwise equal to portable: ReLU on/off, zero_code
// at both grid ends, a masked-channel case, and an epilogue that produces
// -0.0 (ss = ca = cw = cc = 0, negative scale, shift -0.0f) so a ReLU that
// flips the sign of zero is caught.
TEST(BackendOps, DepthwiseIntMobileNetGeometriesBitExact) {
  if (g_opts.have_seed || g_opts.have_op) {
    GTEST_SKIP() << "--seed/--op repro runs skip the directed cases";
  }
  struct Geometry {
    std::int64_t channels, h, w, stride;
  };
  constexpr Geometry kGeometries[] = {
      {8, 32, 32, 1},  {16, 32, 32, 2}, {32, 16, 16, 1}, {32, 16, 16, 2},
      {64, 8, 8, 1},   {2, 60, 270, 1}, {2, 60, 270, 2}};
  constexpr int kBits[] = {8, 4, 2};
  constexpr std::int64_t kBatch = 2;
  const Backend& ref = *adq::backend::find_backend("portable");
  std::mt19937 gen(0xd3f7u);
  std::uniform_real_distribution<float> unit(0.0f, 1.0f);
  for (const Geometry& g : kGeometries) {
    for (int bits : kBits) {
      const int max_code = (1 << bits) - 1;
      for (int zero_code : {0, max_code}) {
        for (bool relu : {false, true}) {
          for (bool signed_zero : {false, true}) {
            adq::backend::DepthwiseArgs a;
            a.channels = g.channels;
            a.in_h = g.h;
            a.in_w = g.w;
            a.kernel = 3;
            a.stride = g.stride;
            a.pad = 1;
            // One geometry masks its upper half (eqn 5's pruned channels).
            a.active_channels = g.channels == 32 && g.stride == 1
                                    ? g.channels / 2
                                    : g.channels;
            a.relu = relu;
            a.zero_code = static_cast<std::uint8_t>(zero_code);
            const std::int64_t C = a.channels;
            std::vector<std::uint8_t> act(
                static_cast<std::size_t>(kBatch * C * g.h * g.w));
            std::vector<std::uint8_t> w(static_cast<std::size_t>(C * 9));
            const auto code = [&] {
              return static_cast<std::uint8_t>(gen() % (max_code + 1));
            };
            for (auto& v : act) v = code();
            for (auto& v : w) v = code();
            std::vector<std::int32_t> sums(static_cast<std::size_t>(C), 0);
            for (std::int64_t c = 0; c < C; ++c) {
              for (int t = 0; t < 9; ++t) sums[c] += w[c * 9 + t];
            }
            a.w_code_sums = sums.data();
            std::vector<float> es(static_cast<std::size_t>(C));
            std::vector<float> eh(static_cast<std::size_t>(C));
            if (signed_zero) {
              for (auto& v : es) v = -0.5f - unit(gen);
              for (auto& v : eh) v = -0.0f;
            } else {
              const float a_scale = 1e-3f + 2e-2f * unit(gen);
              const float a_min = -unit(gen);
              const float w_scale = 1e-3f + 2e-2f * unit(gen);
              const float w_min = -unit(gen);
              a.ss = a_scale * w_scale;
              a.cw = a_min * w_scale;
              a.ca = w_min * a_scale;
              a.cc = 9.0f * a_min * w_min;
              for (auto& v : es) v = 0.5f + unit(gen);
              for (auto& v : eh) v = 2.0f * unit(gen) - 1.0f;
            }
            a.epi_scale = es.data();
            a.epi_shift = eh.data();

            std::vector<float> want(
                static_cast<std::size_t>(kBatch * C * a.out_h() * a.out_w()),
                -12345.678f);
            ref.depthwise_int(act.data(), kBatch, w.data(), a, want.data());
            for (const Backend* bk : backends_under_test()) {
              std::vector<float> got(want.size(), -12345.678f);
              bk->depthwise_int(act.data(), kBatch, w.data(), a, got.data());
              EXPECT_EQ(std::memcmp(want.data(), got.data(),
                                    want.size() * sizeof(float)),
                        0)
                  << "backend '" << bk->name << "' diverges from portable: "
                  << C << "x" << g.h << "x" << g.w << " stride "
                  << g.stride << " int" << bits << " zero_code " << zero_code
                  << " relu " << relu << " signed_zero " << signed_zero
                  << " active " << a.active_channels;
            }
          }
        }
      }
    }
  }
}

// Training-scale sgemm: the GEMM trio of every BN-free VGG19 w0.125 conv on
// 32x32 inputs (batch 1 per call, as nn::Conv2d issues them) and the
// classifier's nn::Linear forward and backward at batch 32, called exactly
// as the layers call them. This covers the 2x2 layers (n = 4) and the
// K = 8 dX of the 8-channel layers. Every available backend must be
// memcmp-equal to portable, sentinels in the ldc slack included.
TEST(BackendOps, SgemmTrainingShapesBitExact) {
  if (g_opts.have_seed || g_opts.have_op) {
    GTEST_SKIP() << "--seed/--op repro runs skip the directed cases";
  }
  struct Call {
    bool trans_a, trans_b;
    std::int64_t m, n, k, lda, ldb;
    float beta;
    const char* what;
  };
  std::vector<Call> calls;
  // VGG19 body: base widths x 0.125, a 2x2 max-pool after convs 2, 4, 8,
  // 12 and 16 (models/vgg.cpp).
  constexpr std::int64_t kWidths[16] = {8,  8,  16, 16, 32, 32, 32, 32,
                                        64, 64, 64, 64, 64, 64, 64, 64};
  constexpr bool kPoolAfter[16] = {false, true,  false, true,  false, false,
                                   false, true,  false, false, false, true,
                                   false, false, false, true};
  std::int64_t in_c = 3, size = 32;
  for (int i = 0; i < 16; ++i) {
    const std::int64_t O = kWidths[i], P = in_c * 9, ohw = size * size;
    calls.push_back({false, false, O, ohw, P, P, ohw, 0.0f, "conv forward"});
    calls.push_back({false, true, O, P, ohw, ohw, ohw, 1.0f, "conv wgrad"});
    calls.push_back({true, false, P, ohw, O, P, ohw, 0.0f, "conv dX"});
    in_c = O;
    if (kPoolAfter[i]) size /= 2;
  }
  const std::int64_t batch = 32, in = in_c * size * size, out = 10;
  calls.push_back({false, true, batch, out, in, in, in, 0.0f, "fc forward"});
  calls.push_back({true, false, out, in, batch, out, in, 1.0f, "fc wgrad"});
  calls.push_back({false, false, batch, in, out, out, in, 0.0f, "fc dX"});

  const Backend& ref = *adq::backend::find_backend("portable");
  std::mt19937 gen(0x5e77u);
  std::uniform_real_distribution<float> unit(-1.0f, 1.0f);
  for (const Call& c : calls) {
    const std::int64_t a_rows = c.trans_a ? c.k : c.m;
    const std::int64_t b_rows = c.trans_b ? c.n : c.k;
    const std::int64_t ldc = c.n + 3;
    std::vector<float> a(static_cast<std::size_t>(a_rows * c.lda));
    std::vector<float> b(static_cast<std::size_t>(b_rows * c.ldb));
    for (auto& v : a) v = unit(gen);
    // ReLU'd activations: about half the B entries are exact zeros.
    for (auto& v : b) v = std::max(unit(gen), 0.0f);
    std::vector<float> want(static_cast<std::size_t>(c.m * ldc), -12345.678f);
    for (std::int64_t i = 0; i < c.m; ++i) {
      for (std::int64_t j = 0; j < c.n; ++j) want[i * ldc + j] = unit(gen);
    }
    const std::vector<float> c0 = want;
    ref.sgemm(c.trans_a, c.trans_b, c.m, c.n, c.k, 1.0f, a.data(), c.lda,
              b.data(), c.ldb, c.beta, want.data(), ldc);
    for (const Backend* bk : backends_under_test()) {
      std::vector<float> got = c0;
      bk->sgemm(c.trans_a, c.trans_b, c.m, c.n, c.k, 1.0f, a.data(), c.lda,
                b.data(), c.ldb, c.beta, got.data(), ldc);
      EXPECT_EQ(std::memcmp(want.data(), got.data(),
                            want.size() * sizeof(float)),
                0)
          << "backend '" << bk->name << "' diverges from portable on "
          << c.what << " " << c.m << "x" << c.n << "x" << c.k;
    }
  }
}

// Fuzz mode: extra cases from a fresh base seed. The base is printed up
// front, and every failure prints its own absolute seed, so a CI hit is
// reproducible without rerunning the whole sweep.
TEST(BackendOps, FuzzRandomCases) {
  if (g_opts.fuzz == 0) {
    GTEST_SKIP() << "pass --fuzz=N to run randomized fuzz cases";
  }
  std::random_device rd;
  const std::uint64_t base =
      (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
  std::printf("[fuzz] base seed %" PRIu64 " (%" PRIu64
              " cases per op per backend)\n",
              base, g_opts.fuzz);
  for (const Backend* bk : backends_under_test()) {
    for (Op op : ops_under_test()) {
      for (std::uint64_t i = 0; i < g_opts.fuzz; ++i) {
        // Mix the op index in so ops don't all replay the same seed list.
        const std::uint64_t seed =
            base + i * 1013904223ull + static_cast<std::uint64_t>(op);
        expect_case_ok(op, seed, *bk);
      }
    }
  }
}

// --- Registry selection -----------------------------------------------------

TEST(BackendRegistry, PortableIsAlwaysRegisteredFirstAndAvailable) {
  const auto& all = adq::backend::all_backends();
  ASSERT_FALSE(all.empty());
  EXPECT_STREQ(all[0]->name, "portable");
  EXPECT_TRUE(all[0]->available);
  EXPECT_EQ(adq::backend::find_backend("portable"), all[0]);
  // The roster is portable + the SIMD tiers, ascending preference.
  ASSERT_EQ(all.size(), 3u);
  EXPECT_STREQ(all[1]->name, "avx2");
  EXPECT_STREQ(all[2]->name, "vnni");
}

TEST(BackendRegistry, EveryBackendTableIsComplete) {
  for (const Backend* bk : adq::backend::all_backends()) {
    SCOPED_TRACE(bk->name);
    EXPECT_NE(bk->igemm, nullptr);
    EXPECT_NE(bk->igemm_w4, nullptr);
    EXPECT_NE(bk->igemm_w2, nullptr);
    EXPECT_NE(bk->im2col_u8, nullptr);
    EXPECT_NE(bk->im2col_f32, nullptr);
    EXPECT_NE(bk->depthwise_int, nullptr);
    EXPECT_NE(bk->depthwise_f32, nullptr);
    EXPECT_NE(bk->quantize_act, nullptr);
    EXPECT_NE(bk->fake_quant, nullptr);
    EXPECT_NE(bk->dequantize, nullptr);
    EXPECT_NE(bk->epilogue_row, nullptr);
    EXPECT_NE(bk->residual_add, nullptr);
    EXPECT_NE(bk->pack_codes, nullptr);
    EXPECT_NE(bk->unpack_codes, nullptr);
    EXPECT_NE(bk->act_pack, nullptr);
    EXPECT_NE(bk->act_unpack, nullptr);
    EXPECT_NE(bk->sgemm, nullptr);
  }
}

TEST(BackendRegistry, DefaultSelectionIsBestAvailable) {
  const auto avail = adq::backend::available_backends();
  ASSERT_FALSE(avail.empty());
  const Backend& chosen = adq::backend::resolve_backends_env(nullptr, nullptr);
  EXPECT_EQ(&chosen, avail.back());
}

TEST(BackendRegistry, ExplicitPinSelectsThatBackend) {
  const Backend& chosen =
      adq::backend::resolve_backends_env("portable", nullptr);
  EXPECT_STREQ(chosen.name, "portable");
}

TEST(BackendRegistry, AdqBackendTakesPrecedenceOverLegacySimd) {
  // Even a nonsense legacy value is ignored once ADQ_BACKEND is set.
  const Backend& chosen =
      adq::backend::resolve_backends_env("portable", "bogus");
  EXPECT_STREQ(chosen.name, "portable");
}

TEST(BackendRegistry, UnknownBackendFailsFastListingRoster) {
  try {
    adq::backend::resolve_backends_env("neon", nullptr);
    FAIL() << "expected std::runtime_error for an unknown ADQ_BACKEND";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("neon"), std::string::npos) << msg;
    // The error must teach the fix: list every registered backend.
    EXPECT_NE(msg.find("portable"), std::string::npos) << msg;
    EXPECT_NE(msg.find("avx2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("vnni"), std::string::npos) << msg;
  }
}

TEST(BackendRegistry, LegacySimdGenericAliasesPortable) {
  const Backend& chosen =
      adq::backend::resolve_backends_env(nullptr, "generic");
  EXPECT_STREQ(chosen.name, "portable");
}

TEST(BackendRegistry, LegacySimdRegistryNamesStillResolve) {
  // ADQ_SIMD=avx2 used to pick the AVX2 kernel cap; it now resolves through
  // the registry, so it must either select the avx2 backend or fail fast
  // when the host lacks it — never silently fall back.
  const Backend* avx2 = adq::backend::find_backend("avx2");
  ASSERT_NE(avx2, nullptr);
  if (avx2->available) {
    const Backend& chosen =
        adq::backend::resolve_backends_env(nullptr, "avx2");
    EXPECT_EQ(&chosen, avx2);
  } else {
    EXPECT_THROW(adq::backend::resolve_backends_env(nullptr, "avx2"),
                 std::runtime_error);
  }
}

TEST(BackendRegistry, UnknownLegacySimdValueFailsFast) {
  try {
    adq::backend::resolve_backends_env(nullptr, "sse9");
    FAIL() << "expected std::runtime_error for an unknown ADQ_SIMD";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("sse9"), std::string::npos) << msg;
    EXPECT_NE(msg.find("ADQ_SIMD"), std::string::npos) << msg;
  }
}

TEST(BackendRegistry, UnavailableBackendPinFailsFast) {
  for (const Backend* bk : adq::backend::all_backends()) {
    if (bk->available) continue;
    EXPECT_THROW(adq::backend::resolve_backends_env(bk->name, nullptr),
                 std::runtime_error)
        << bk->name;
  }
}

TEST(BackendRegistry, OpNamesRoundTrip) {
  for (Op op : kAllOps) {
    Op parsed{};
    ASSERT_TRUE(op_from_name(op_name(op), &parsed)) << op_name(op);
    EXPECT_EQ(parsed, op);
  }
  Op parsed{};
  EXPECT_FALSE(op_from_name("not_an_op", &parsed));
}

// --- Perf mode --------------------------------------------------------------

/// Times every op on every available backend and writes the per-backend
/// GMAC/s (resp. GB/s) table CI uploads. igemm is measured at each code
/// bit-width the mixed-precision engine feeds it.
int run_perf_mode() {
  adq::bench::JsonReport report("bench_backend_ops");
  std::printf("%-10s %-16s %10s %8s\n", "backend", "op", "value", "unit");
  for (const Backend* bk : backends_under_test()) {
    for (Op op : ops_under_test()) {
      std::vector<int> bit_list = {8};
      if (op == Op::kIgemm) bit_list = {8, 4, 2};
      // The packed kernels run at their native bit-width only; their metric
      // names carry the suffix so the int4-packed vs int8-unpacked GMAC/s
      // comparison reads straight out of the JSON.
      if (op == Op::kIgemmW4) bit_list = {4};
      if (op == Op::kIgemmW2) bit_list = {2};
      // Activation pack/unpack runs once per storage cell the activation
      // planner can assign (8 is a memcpy, 4/2 are the SIMD merges).
      if (op == Op::kActPack || op == Op::kActUnpack) bit_list = {8, 4, 2};
      for (int bits : bit_list) {
        const adq::backend::PerfSample s =
            adq::backend::measure_perf(op, *bk, bits);
        std::string metric = std::string(bk->name) + "_" + op_name(op);
        if (op == Op::kIgemm) metric += "_int" + std::to_string(bits);
        if (op == Op::kIgemmW4 || op == Op::kIgemmW2) {
          metric += "_int" + std::to_string(bits);
        }
        if (op == Op::kActPack || op == Op::kActUnpack) {
          metric += "_cell" + std::to_string(bits);
        }
        report.add(metric, s.value, s.unit);
        std::printf("%-10s %-16s %10.2f %8s\n", bk->name, metric.c_str(),
                    s.value, s.unit);
      }
    }
  }
  return 0;
}

/// Consumes the harness's own flags (everything else is left for gtest).
/// Returns false with a message on a malformed flag.
bool parse_args(int* argc, char** argv, Options* opts) {
  int kept = 1;
  for (int i = 1; i < *argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--seed=", 7) == 0) {
      opts->have_seed = true;
      opts->seed = std::strtoull(arg + 7, nullptr, 10);
    } else if (std::strncmp(arg, "--op=", 5) == 0) {
      if (!op_from_name(arg + 5, &opts->op)) {
        std::fprintf(stderr, "unknown --op '%s'; known ops:", arg + 5);
        for (Op op : kAllOps) std::fprintf(stderr, " %s", op_name(op));
        std::fprintf(stderr, "\n");
        return false;
      }
      opts->have_op = true;
    } else if (std::strncmp(arg, "--fuzz=", 7) == 0) {
      opts->fuzz = std::strtoull(arg + 7, nullptr, 10);
    } else if (std::strcmp(arg, "--perf") == 0) {
      opts->perf = true;
    } else {
      argv[kept++] = argv[i];
    }
  }
  *argc = kept;
  argv[kept] = nullptr;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (!parse_args(&argc, argv, &g_opts)) return 2;
  if (g_opts.perf) return run_perf_mode();
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
