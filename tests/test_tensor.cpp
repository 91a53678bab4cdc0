// Unit tests for the tensor substrate: shapes, storage, RNG determinism,
// GEMM against a naive reference, im2col/col2im adjointness, and the
// elementwise/reduction ops.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/ops.h"
#include "tensor/parallel.h"
#include "tensor/rng.h"
#include "tensor/shape.h"
#include "tensor/tensor.h"

namespace adq {
namespace {

TEST(Shape, BasicProperties) {
  const Shape s{2, 3, 4};
  EXPECT_EQ(s.rank(), 3);
  EXPECT_EQ(s.numel(), 24);
  EXPECT_EQ(s.dim(0), 2);
  EXPECT_EQ(s.dim(-1), 4);
  EXPECT_EQ(s.stride(0), 12);
  EXPECT_EQ(s.stride(2), 1);
  EXPECT_EQ(s.to_string(), "[2, 3, 4]");
}

TEST(Shape, ScalarShape) {
  const Shape s;
  EXPECT_EQ(s.rank(), 0);
  EXPECT_EQ(s.numel(), 1);
}

TEST(Shape, Equality) {
  EXPECT_EQ(Shape({2, 3}), Shape({2, 3}));
  EXPECT_NE(Shape({2, 3}), Shape({3, 2}));
  EXPECT_NE(Shape({2, 3}), Shape({2, 3, 1}));
}

TEST(Shape, WithDim) {
  const Shape s{2, 3};
  EXPECT_EQ(s.with_dim(1, 7), Shape({2, 7}));
  EXPECT_EQ(s.with_dim(-1, 9), Shape({2, 9}));
}

TEST(Shape, InvalidAxisThrows) {
  const Shape s{2, 3};
  EXPECT_THROW(s.dim(2), std::out_of_range);
  EXPECT_THROW(s.dim(-3), std::out_of_range);
}

TEST(Shape, NegativeDimThrows) {
  EXPECT_THROW(Shape({2, -1}), std::invalid_argument);
}

TEST(Shape, PrependedAndTail) {
  const Shape sample{3, 32, 32};
  const Shape batch = sample.prepended(16);
  EXPECT_EQ(batch, (Shape{16, 3, 32, 32}));
  EXPECT_EQ(batch.tail(), sample);
  EXPECT_EQ(Shape{5}.tail().rank(), 0);
  EXPECT_THROW(Shape{}.tail(), std::out_of_range);
  EXPECT_THROW(sample.prepended(-1), std::invalid_argument);
  const Shape full{1, 2, 3, 4, 5, 6};  // already at kMaxRank
  EXPECT_THROW(full.prepended(7), std::invalid_argument);
}

TEST(Ops, StackSamplesAndTakeSample) {
  Tensor a(Shape{2, 3});
  Tensor b(Shape{2, 3});
  for (std::int64_t i = 0; i < 6; ++i) {
    a[i] = static_cast<float>(i);
    b[i] = static_cast<float>(100 + i);
  }
  const Tensor batch = stack_samples({&a, &b});
  EXPECT_EQ(batch.shape(), (Shape{2, 2, 3}));
  for (std::int64_t i = 0; i < 6; ++i) {
    EXPECT_EQ(batch[i], a[i]);
    EXPECT_EQ(batch[6 + i], b[i]);
  }
  const Tensor back = take_sample(batch, 1);
  EXPECT_EQ(back.shape(), (Shape{2, 3}));
  for (std::int64_t i = 0; i < 6; ++i) EXPECT_EQ(back[i], b[i]);

  EXPECT_THROW(stack_samples({}), std::invalid_argument);
  Tensor wrong(Shape{3, 2});
  EXPECT_THROW(stack_samples({&a, &wrong}), std::invalid_argument);
  EXPECT_THROW(take_sample(batch, 2), std::out_of_range);
  EXPECT_THROW(take_sample(batch, -1), std::out_of_range);
}

TEST(Im2col, StridedVariantMatchesContiguous) {
  // Two "images" lowered as adjacent column blocks of one slab must hold
  // exactly the per-image contiguous lowering — the invariant the batched
  // conv path relies on. Covers the 3x3/s1/p1 fast path and a strided
  // geometry.
  Rng rng(77);
  ConvGeometry geos[2];
  geos[0].channels = 3; geos[0].in_h = 6; geos[0].in_w = 6;
  geos[0].kernel_h = 3; geos[0].kernel_w = 3; geos[0].stride = 1;
  geos[0].pad = 1;
  geos[1].channels = 2; geos[1].in_h = 9; geos[1].in_w = 7;
  geos[1].kernel_h = 3; geos[1].kernel_w = 2; geos[1].stride = 2;
  geos[1].pad = 1;
  for (const ConvGeometry& g : geos) {
    const std::int64_t chw = g.channels * g.in_h * g.in_w;
    const std::int64_t ohw = g.out_h() * g.out_w(), P = g.patch_size();
    std::vector<std::uint8_t> im(static_cast<std::size_t>(2 * chw));
    for (auto& v : im) v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));

    std::vector<std::uint8_t> slab(static_cast<std::size_t>(P * 2 * ohw), 0xEE);
    std::vector<std::uint8_t> single(static_cast<std::size_t>(P * ohw));
    for (std::int64_t b = 0; b < 2; ++b) {
      im2col_u8(im.data() + b * chw, g, slab.data() + b * ohw, 2 * ohw, 7);
      im2col_u8(im.data() + b * chw, g, single.data(), 7);
      for (std::int64_t r = 0; r < P; ++r) {
        for (std::int64_t s = 0; s < ohw; ++s) {
          ASSERT_EQ(slab[static_cast<std::size_t>(r * 2 * ohw + b * ohw + s)],
                    single[static_cast<std::size_t>(r * ohw + s)])
              << "b=" << b << " r=" << r << " s=" << s;
        }
      }
    }
  }
}

TEST(Im2col, LoweringMatchesBruteForceDefinition) {
  // Element-by-element check against the im2col definition, over
  // geometries chosen to hit every code path: the 3x3/s1/p1 fused
  // specialisation, the generic unit-stride pad/copy/pad branch (5x5/p2,
  // 3x3/p0, asymmetric kernel), and the strided fallback.
  Rng rng(88);
  struct G { std::int64_t c, h, w, kh, kw, s, p; };
  const G cases[] = {
      {3, 8, 8, 3, 3, 1, 1},   // fused specialisation
      {2, 7, 9, 5, 5, 1, 2},   // generic unit stride, wide kernel
      {3, 6, 6, 3, 3, 1, 0},   // generic unit stride, no padding
      {1, 5, 4, 1, 2, 1, 1},   // generic unit stride, asymmetric kernel
      {2, 9, 7, 3, 3, 2, 1},   // strided fallback
  };
  for (const G& gc : cases) {
    ConvGeometry g;
    g.channels = gc.c; g.in_h = gc.h; g.in_w = gc.w;
    g.kernel_h = gc.kh; g.kernel_w = gc.kw; g.stride = gc.s; g.pad = gc.p;
    const std::int64_t oh = g.out_h(), ow = g.out_w(), P = g.patch_size();
    const std::uint8_t pad_code = 9;

    std::vector<std::uint8_t> im(static_cast<std::size_t>(gc.c * gc.h * gc.w));
    for (auto& v : im) v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    std::vector<std::uint8_t> col(static_cast<std::size_t>(P * oh * ow), 0xCC);
    im2col_u8(im.data(), g, col.data(), pad_code);

    std::int64_t row = 0;
    for (std::int64_t c = 0; c < gc.c; ++c) {
      for (std::int64_t kh = 0; kh < gc.kh; ++kh) {
        for (std::int64_t kw = 0; kw < gc.kw; ++kw, ++row) {
          for (std::int64_t y = 0; y < oh; ++y) {
            for (std::int64_t x = 0; x < ow; ++x) {
              const std::int64_t iy = y * gc.s + kh - gc.p;
              const std::int64_t ix = x * gc.s + kw - gc.p;
              const bool inside =
                  iy >= 0 && iy < gc.h && ix >= 0 && ix < gc.w;
              const std::uint8_t want =
                  inside ? im[static_cast<std::size_t>((c * gc.h + iy) * gc.w +
                                                       ix)]
                         : pad_code;
              ASSERT_EQ(col[static_cast<std::size_t>(row * oh * ow + y * ow +
                                                     x)],
                        want)
                  << "geometry " << gc.kh << "x" << gc.kw << "/s" << gc.s
                  << "/p" << gc.p << " at row " << row << " y " << y << " x "
                  << x;
            }
          }
        }
      }
    }
  }
}

TEST(Im2col, WorkspaceGrowsAndReuses) {
  Im2colWorkspace ws;
  std::uint8_t* p8 = ws.ensure_u8(100);
  ASSERT_NE(p8, nullptr);
  EXPECT_EQ(ws.ensure_u8(50), p8);  // no shrink, same buffer
  EXPECT_GE(ws.u8.size(), 100u);
  float* pf = ws.ensure_f32(64);
  ASSERT_NE(pf, nullptr);
  EXPECT_EQ(ws.ensure_f32(64), pf);
}

TEST(Tensor, ZeroInitialised) {
  const Tensor t(Shape{3, 4});
  EXPECT_EQ(t.numel(), 12);
  for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, FillAndAt2d) {
  Tensor t(Shape{2, 3});
  t.fill(2.5f);
  EXPECT_EQ(t.at(1, 2), 2.5f);
  t.at(0, 1) = -1.0f;
  EXPECT_EQ(t[1], -1.0f);
}

TEST(Tensor, At4dIndexing) {
  Tensor t(Shape{2, 3, 4, 5});
  t.at(1, 2, 3, 4) = 9.0f;
  EXPECT_EQ(t[t.numel() - 1], 9.0f);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t(Shape{2, 6});
  std::iota(t.data(), t.data() + t.numel(), 0.0f);
  const Tensor r = t.reshaped(Shape{3, 4});
  EXPECT_EQ(r.shape(), Shape({3, 4}));
  EXPECT_EQ(r[7], 7.0f);
}

TEST(Tensor, ReshapeNumelMismatchThrows) {
  Tensor t(Shape{2, 3});
  EXPECT_THROW(t.reshape(Shape{4, 2}), std::invalid_argument);
}

TEST(Tensor, ConstructFromVectorChecksSize) {
  EXPECT_THROW(Tensor(Shape{2, 2}, std::vector<float>{1, 2, 3}),
               std::invalid_argument);
}

TEST(Rng, DeterministicFromSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 16; ++i) any_diff |= a.uniform() != b.uniform();
  EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const float v = rng.uniform(-2.0f, 5.0f);
    EXPECT_GE(v, -2.0f);
    EXPECT_LT(v, 5.0f);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(4);
  double s = 0.0, s2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(1.0f, 2.0f);
    s += v;
    s2 += v * v;
  }
  const double mean = s / n;
  const double stddev = std::sqrt(s2 / n - mean * mean);
  EXPECT_NEAR(mean, 1.0, 0.1);
  EXPECT_NEAR(stddev, 2.0, 0.1);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(5);
  std::vector<std::int64_t> v(100);
  std::iota(v.begin(), v.end(), 0);
  rng.shuffle(v);
  std::vector<std::int64_t> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (std::int64_t i = 0; i < 100; ++i) EXPECT_EQ(sorted[static_cast<std::size_t>(i)], i);
}

TEST(Rng, ForkIndependence) {
  Rng parent(7);
  Rng child = parent.fork();
  // Child stream must not replay the parent's stream.
  Rng parent_copy(7);
  parent_copy.fork();
  EXPECT_EQ(parent.uniform(), parent_copy.uniform());
  (void)child;
}

TEST(Parallel, CoversRangeExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(0, 1000, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) hits[static_cast<std::size_t>(i)]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, NestedCallsRunSerially) {
  std::atomic<int> total{0};
  parallel_for(0, 8, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      parallel_for(0, 10, [&](std::int64_t ib, std::int64_t ie) {
        total += static_cast<int>(ie - ib);
      });
    }
  });
  EXPECT_EQ(total.load(), 80);
}

TEST(Parallel, EmptyRangeIsNoop) {
  bool called = false;
  parallel_for(5, 5, [&](std::int64_t, std::int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(Parallel, ReversedRangeIsNoop) {
  bool called = false;
  parallel_for(10, 2, [&](std::int64_t, std::int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(Parallel, GrainLargerThanRangeRunsOnceInline) {
  // A grain that covers the whole range must produce exactly one serial
  // invocation of [begin, end) on the calling thread.
  const std::thread::id caller = std::this_thread::get_id();
  int calls = 0;
  std::int64_t seen_begin = -1, seen_end = -1;
  std::thread::id seen_thread;
  parallel_for(
      3, 11,
      [&](std::int64_t b, std::int64_t e) {
        ++calls;
        seen_begin = b;
        seen_end = e;
        seen_thread = std::this_thread::get_id();
      },
      /*grain=*/100);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(seen_begin, 3);
  EXPECT_EQ(seen_end, 11);
  EXPECT_EQ(seen_thread, caller);
}

TEST(Parallel, SingleThreadFallbackIsSerial) {
  // With a single-worker pool every chunk must run inline on the caller.
  // The pool reads ADQ_THREADS once at creation, so this property is only
  // observable in a process launched with ADQ_THREADS=1; ctest registers
  // such a run as `parallel_serial_fallback` (see tests/CMakeLists.txt).
  // On multi-worker pools the range still covers exactly once, so the
  // coverage half of the assertion runs everywhere.
  const bool single = parallel_thread_count() == 1;
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::atomic<int>> hits(64);
  std::atomic<bool> off_thread{false};
  parallel_for(0, 64, [&](std::int64_t b, std::int64_t e) {
    if (std::this_thread::get_id() != caller) off_thread = true;
    for (std::int64_t i = b; i < e; ++i) hits[static_cast<std::size_t>(i)]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  if (single) {
    EXPECT_FALSE(off_thread.load());
  }
}

TEST(Parallel, ThreadCountGrammarAcceptsIntegers) {
  EXPECT_EQ(detail::parse_thread_count("1"), 1);
  EXPECT_EQ(detail::parse_thread_count("8"), 8);
  EXPECT_EQ(detail::parse_thread_count("4096"), 4096);
}

TEST(Parallel, ThreadCountGrammarRejectsGarbage) {
  // atoi used to map every one of these to a silent fallback; the strict
  // grammar must refuse them with a precise error instead.
  for (const char* bad : {"abc", "4x", "-2", "0", "", "1.5", "1e3", "+",
                          "99999999999999999999", "4097"}) {
    EXPECT_THROW(detail::parse_thread_count(bad), std::invalid_argument)
        << "accepted ADQ_THREADS='" << bad << "'";
  }
}

TEST(Parallel, ConcurrentTopLevelCallersProduceDisjointOutputs) {
  // M independent top-level parallel_for regions in flight at once — the
  // concurrent-scheduler contract. Each caller fills its OWN buffer with a
  // caller-specific pattern; any cross-job chunk mixup (a worker applying
  // job A's fn to job B's range, a corrupted cursor, a latch releasing
  // early) corrupts a buffer. Several rounds shake out interleavings.
  constexpr int kCallers = 4;
  constexpr std::int64_t kN = 20'000;
  for (int round = 0; round < 8; ++round) {
    std::vector<std::vector<std::int64_t>> out(
        kCallers, std::vector<std::int64_t>(kN, -1));
    std::vector<std::thread> callers;
    for (int c = 0; c < kCallers; ++c) {
      callers.emplace_back([c, &out] {
        const std::int64_t base = static_cast<std::int64_t>(c + 1) * 1'000'000;
        parallel_for(0, kN, [&](std::int64_t b, std::int64_t e) {
          for (std::int64_t i = b; i < e; ++i) {
            out[static_cast<std::size_t>(c)][static_cast<std::size_t>(i)] =
                base + i;
          }
        }, /*grain=*/64);
      });
    }
    for (auto& t : callers) t.join();
    for (int c = 0; c < kCallers; ++c) {
      const std::int64_t base = static_cast<std::int64_t>(c + 1) * 1'000'000;
      for (std::int64_t i = 0; i < kN; ++i) {
        ASSERT_EQ(out[static_cast<std::size_t>(c)][static_cast<std::size_t>(i)],
                  base + i)
            << "caller " << c << " index " << i << " round " << round;
      }
    }
  }
}

TEST(Parallel, OversubscribedCallersComplete) {
  // More concurrent callers than pool threads: every caller drains its own
  // job, so completion must never depend on a pool worker being free. A
  // deadlock here trips the suite timeout.
  const int callers = 2 * parallel_thread_count() + 2;
  std::vector<std::int64_t> sums(static_cast<std::size_t>(callers), 0);
  std::vector<std::thread> threads;
  for (int c = 0; c < callers; ++c) {
    threads.emplace_back([c, &sums] {
      std::atomic<std::int64_t> sum{0};
      parallel_for(0, 4'096, [&](std::int64_t b, std::int64_t e) {
        std::int64_t local = 0;
        for (std::int64_t i = b; i < e; ++i) local += i;
        sum += local;
      }, /*grain=*/32);
      sums[static_cast<std::size_t>(c)] = sum.load();
    });
  }
  for (auto& t : threads) t.join();
  for (const std::int64_t s : sums) EXPECT_EQ(s, 4'095 * 4'096 / 2);
}

TEST(Parallel, NestedCallsInsideConcurrentCallersStaySerial) {
  // The nested-serial fallback must hold inside every concurrently live
  // region, not just for a lone caller.
  constexpr int kCallers = 3;
  std::vector<std::thread> callers;
  std::vector<std::atomic<int>> totals(kCallers);
  for (auto& t : totals) t = 0;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([c, &totals] {
      parallel_for(0, 8, [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i) {
          parallel_for(0, 10, [&](std::int64_t ib, std::int64_t ie) {
            totals[static_cast<std::size_t>(c)] += static_cast<int>(ie - ib);
          });
        }
      });
    });
  }
  for (auto& t : callers) t.join();
  for (const auto& t : totals) EXPECT_EQ(t.load(), 80);
}

TEST(Parallel, ScopedThreadBudgetCapsAndRestores) {
  const int pool_n = parallel_thread_count();
  EXPECT_EQ(parallel_effective_threads(), pool_n);
  {
    ScopedThreadBudget one(1);
    EXPECT_EQ(parallel_effective_threads(), 1);
    // Budget 1 runs dispatches inline on the caller, whole range at once.
    const std::thread::id caller = std::this_thread::get_id();
    int calls = 0;
    bool off_thread = false;
    parallel_for(0, 10'000, [&](std::int64_t, std::int64_t) {
      ++calls;
      off_thread |= std::this_thread::get_id() != caller;
    });
    EXPECT_EQ(calls, 1);
    EXPECT_FALSE(off_thread);
    {
      ScopedThreadBudget two(2);
      EXPECT_EQ(parallel_effective_threads(), std::min(2, pool_n));
    }
    EXPECT_EQ(parallel_effective_threads(), 1);  // inner guard restored
  }
  EXPECT_EQ(parallel_effective_threads(), pool_n);
  EXPECT_THROW(ScopedThreadBudget{-1}, std::invalid_argument);
}

TEST(Parallel, PoolStatsCountDispatches) {
  const ParallelPoolStats before = parallel_pool_stats();
  EXPECT_EQ(before.pool_threads, parallel_thread_count());
  parallel_for(0, 10'000, [](std::int64_t, std::int64_t) {}, /*grain=*/1);
  const ParallelPoolStats after = parallel_pool_stats();
  if (parallel_thread_count() > 1) {
    EXPECT_GT(after.jobs_dispatched, before.jobs_dispatched);
  } else {
    // Serial fast path: nothing reaches the scheduler.
    EXPECT_EQ(after.jobs_dispatched, before.jobs_dispatched);
  }
  EXPECT_EQ(after.live_jobs, 0);  // nothing in flight between dispatches
}

// Naive reference GEMM for validation.
Tensor naive_matmul(const Tensor& a, const Tensor& b, bool ta, bool tb) {
  const std::int64_t m = ta ? a.shape().dim(1) : a.shape().dim(0);
  const std::int64_t k = ta ? a.shape().dim(0) : a.shape().dim(1);
  const std::int64_t n = tb ? b.shape().dim(0) : b.shape().dim(1);
  Tensor c(Shape{m, n});
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (std::int64_t p = 0; p < k; ++p) {
        const float av = ta ? a.at(p, i) : a.at(i, p);
        const float bv = tb ? b.at(j, p) : b.at(p, j);
        s += static_cast<double>(av) * bv;
      }
      c.at(i, j) = static_cast<float>(s);
    }
  }
  return c;
}

class GemmShapes : public ::testing::TestWithParam<std::tuple<int, int, int, bool, bool>> {};

TEST_P(GemmShapes, MatchesNaive) {
  const auto [m, n, k, ta, tb] = GetParam();
  Rng rng(11);
  Tensor a(ta ? Shape{k, m} : Shape{m, k});
  Tensor b(tb ? Shape{n, k} : Shape{k, n});
  rng.fill_normal(a, 0.0f, 1.0f);
  rng.fill_normal(b, 0.0f, 1.0f);
  const Tensor fast = matmul(a, b, ta, tb);
  const Tensor ref = naive_matmul(a, b, ta, tb);
  ASSERT_EQ(fast.shape(), ref.shape());
  for (std::int64_t i = 0; i < fast.numel(); ++i) {
    EXPECT_NEAR(fast[i], ref[i], 1e-3f) << "at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GemmShapes,
    ::testing::Values(std::make_tuple(1, 1, 1, false, false),
                      std::make_tuple(4, 16, 4, false, false),
                      std::make_tuple(5, 17, 9, false, false),
                      std::make_tuple(64, 64, 64, false, false),
                      std::make_tuple(33, 65, 127, false, false),
                      std::make_tuple(128, 300, 256, false, false),
                      std::make_tuple(31, 33, 7, true, false),
                      std::make_tuple(31, 33, 7, false, true),
                      std::make_tuple(31, 33, 7, true, true),
                      std::make_tuple(100, 100, 300, true, true)));

TEST(Gemm, BetaScalesExistingC) {
  const std::int64_t m = 3, n = 4, k = 2;
  Tensor a(Shape{m, k}, 1.0f);
  Tensor b(Shape{k, n}, 1.0f);
  Tensor c(Shape{m, n}, 10.0f);
  sgemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.5f, c.data(), n);
  for (std::int64_t i = 0; i < c.numel(); ++i) EXPECT_FLOAT_EQ(c[i], 7.0f);
}

TEST(Gemm, AlphaScalesProduct) {
  const std::int64_t m = 2, n = 2, k = 3;
  Tensor a(Shape{m, k}, 1.0f);
  Tensor b(Shape{k, n}, 2.0f);
  Tensor c(Shape{m, n});
  sgemm(false, false, m, n, k, 0.5f, a.data(), k, b.data(), n, 0.0f, c.data(), n);
  for (std::int64_t i = 0; i < c.numel(); ++i) EXPECT_FLOAT_EQ(c[i], 3.0f);
}

TEST(Gemm, InnerDimMismatchThrows) {
  const Tensor a(Shape{2, 3});
  const Tensor b(Shape{4, 5});
  EXPECT_THROW(matmul(a, b), std::invalid_argument);
}

TEST(Im2col, IdentityKernelCopiesImage) {
  ConvGeometry g;
  g.channels = 2;
  g.in_h = g.in_w = 3;
  g.kernel_h = g.kernel_w = 1;
  g.stride = 1;
  g.pad = 0;
  Tensor im(Shape{2, 3, 3});
  std::iota(im.data(), im.data() + im.numel(), 0.0f);
  Tensor col(Shape{g.patch_size(), g.out_h() * g.out_w()});
  im2col(im.data(), g, col.data());
  for (std::int64_t i = 0; i < im.numel(); ++i) EXPECT_EQ(col[i], im[i]);
}

TEST(Im2col, PaddingYieldsZeros) {
  ConvGeometry g;
  g.channels = 1;
  g.in_h = g.in_w = 2;
  g.kernel_h = g.kernel_w = 3;
  g.stride = 1;
  g.pad = 1;
  Tensor im(Shape{1, 2, 2}, 1.0f);
  Tensor col(Shape{g.patch_size(), g.out_h() * g.out_w()});
  im2col(im.data(), g, col.data());
  // Top-left output, top-left kernel tap reads the padded corner.
  EXPECT_EQ(col[0], 0.0f);
}

TEST(Im2col, Col2imIsAdjoint) {
  // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining property
  // of the backward scatter.
  ConvGeometry g;
  g.channels = 3;
  g.in_h = g.in_w = 6;
  g.kernel_h = g.kernel_w = 3;
  g.stride = 2;
  g.pad = 1;
  Rng rng(13);
  Tensor x(Shape{g.channels, g.in_h, g.in_w});
  rng.fill_normal(x, 0.0f, 1.0f);
  Tensor y(Shape{g.patch_size(), g.out_h() * g.out_w()});
  rng.fill_normal(y, 0.0f, 1.0f);

  Tensor col(y.shape());
  im2col(x.data(), g, col.data());
  Tensor back(x.shape());
  col2im(y.data(), g, back.data());

  double lhs = 0.0, rhs = 0.0;
  for (std::int64_t i = 0; i < col.numel(); ++i) lhs += static_cast<double>(col[i]) * y[i];
  for (std::int64_t i = 0; i < x.numel(); ++i) rhs += static_cast<double>(x[i]) * back[i];
  EXPECT_NEAR(lhs, rhs, 1e-2);
}

TEST(Ops, AddSubMul) {
  Tensor a(Shape{4}, 3.0f);
  Tensor b(Shape{4}, 2.0f);
  EXPECT_TRUE(allclose(add(a, b), Tensor(Shape{4}, 5.0f)));
  EXPECT_TRUE(allclose(sub(a, b), Tensor(Shape{4}, 1.0f)));
  EXPECT_TRUE(allclose(mul(a, b), Tensor(Shape{4}, 6.0f)));
  EXPECT_TRUE(allclose(scale(a, -2.0f), Tensor(Shape{4}, -6.0f)));
}

TEST(Ops, ShapeMismatchThrows) {
  const Tensor a(Shape{4});
  const Tensor b(Shape{5});
  EXPECT_THROW(add(a, b), std::invalid_argument);
  EXPECT_THROW(mul(a, b), std::invalid_argument);
}

TEST(Ops, AxpyAccumulates) {
  Tensor a(Shape{3}, 1.0f);
  const Tensor b(Shape{3}, 2.0f);
  axpy(a, 0.5f, b);
  EXPECT_TRUE(allclose(a, Tensor(Shape{3}, 2.0f)));
}

TEST(Ops, ReluClampsNegatives) {
  Tensor x(Shape{4}, std::vector<float>{-1.0f, 0.0f, 2.0f, -3.0f});
  const Tensor y = relu(x);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[1], 0.0f);
  EXPECT_EQ(y[2], 2.0f);
  EXPECT_EQ(y[3], 0.0f);
}

TEST(Ops, SumMeanCountNonzero) {
  Tensor x(Shape{4}, std::vector<float>{1.0f, 0.0f, -2.0f, 3.0f});
  EXPECT_DOUBLE_EQ(sum(x), 2.0);
  EXPECT_DOUBLE_EQ(mean(x), 0.5);
  EXPECT_EQ(count_nonzero(x), 3);
  EXPECT_EQ(count_nonzero(x, 1.5f), 2);
}

TEST(Ops, MinMax) {
  Tensor x(Shape{4}, std::vector<float>{1.0f, -5.0f, 2.0f, 3.0f});
  EXPECT_EQ(min_value(x), -5.0f);
  EXPECT_EQ(max_value(x), 3.0f);
  EXPECT_EQ(max_abs(x), 5.0f);
}

// The fused pass must pick the same element as min_value / max_value —
// the first of equal ones, so a -0.0 / +0.0 tie keeps whichever came first.
TEST(Ops, FusedMinMaxMatchesSeparatePasses) {
  const std::vector<std::vector<float>> cases = {
      {1.0f, -5.0f, 2.0f, 3.0f},
      {-0.0f, 0.0f, 1.0f, 0.0f},
      {0.0f, -0.0f, -1.0f, -0.0f},
      {2.0f},
      {std::nanf(""), 1.0f, -1.0f},
      {1.0f, std::nanf(""), -1.0f}};
  for (const auto& v : cases) {
    const Tensor x(Shape{static_cast<std::int64_t>(v.size())}, v);
    const auto [lo, hi] = min_max(x);
    const float lo_ref = min_value(x), hi_ref = max_value(x);
    EXPECT_EQ(std::memcmp(&lo, &lo_ref, sizeof(float)), 0);
    EXPECT_EQ(std::memcmp(&hi, &hi_ref, sizeof(float)), 0);
  }
  EXPECT_THROW(min_max(Tensor(Shape{0})), std::invalid_argument);
}

TEST(Ops, ArgmaxRows) {
  Tensor x(Shape{2, 3}, std::vector<float>{1, 5, 2, 7, 0, 3});
  const auto idx = argmax_rows(x);
  EXPECT_EQ(idx[0], 1);
  EXPECT_EQ(idx[1], 0);
}

}  // namespace
}  // namespace adq
