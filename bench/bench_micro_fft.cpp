// Google-benchmark microbenchmarks of the FFT substrate and the protected
// transforms: per-size throughput of the engines every harness builds on.
//
// The FFT kernels run through the SIMD dispatcher (src/simd): the *_scalar
// variants force the scalar reference backend, the *_dispatched variants run
// whatever runtime detection picks (the label column shows which), so the
// single-lane SIMD speedup is the ratio of the two rows at equal size.
#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

#include "abft/options.hpp"
#include "abft/inplace.hpp"
#include "abft/protected_fft.hpp"
#include "bench_backend.hpp"
#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "common/tile_transpose.hpp"
#include "fft/bit_reversal.hpp"
#include "fft/fft.hpp"
#include "fft/inplace_radix2.hpp"

namespace {

using namespace ftfft;
using ftfft::bench::use_backend;

void BM_FftForward(benchmark::State& state, bool dispatched) {
  use_backend(state, dispatched);
  const auto n = static_cast<std::size_t>(state.range(0));
  auto x = random_vector(n, InputDistribution::kUniform, 1);
  std::vector<cplx> out(n);
  fft::Fft engine(n);
  for (auto _ : state) {
    engine.execute(x.data(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
// Every power of two from 2^7 to 2^11, so a snapshot records both sides of
// fft::Fft's engine crossover (fft::kInplaceEngineMinSize), then every
// second power up to 2^20, then primes on the Bluestein path, whose
// power-of-two convolution (256, 512, 16384 and 262144 points) runs on the
// in-place engine.
void fft_forward_sizes(benchmark::internal::Benchmark* b) {
  for (std::int64_t n = 1 << 7; n <= 1 << 11; n *= 2) b->Arg(n);
  for (std::int64_t n = 1 << 12; n <= 1 << 20; n *= 4) b->Arg(n);
  for (std::int64_t n : {101, 251, 4099, 100003}) b->Arg(n);
}
BENCHMARK_CAPTURE(BM_FftForward, scalar, false)->Apply(fft_forward_sizes);
BENCHMARK_CAPTURE(BM_FftForward, dispatched, true)->Apply(fft_forward_sizes);

void BM_FftInplaceRadix2(benchmark::State& state, bool dispatched) {
  use_backend(state, dispatched);
  const auto n = static_cast<std::size_t>(state.range(0));
  auto x = random_vector(n, InputDistribution::kUniform, 2);
  const auto plan = fft::InplaceRadix2Plan::get(n);
  for (auto _ : state) {
    plan->forward(x.data());
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK_CAPTURE(BM_FftInplaceRadix2, scalar, false)
    ->RangeMultiplier(4)
    ->Range(1 << 10, 1 << 20);
BENCHMARK_CAPTURE(BM_FftInplaceRadix2, dispatched, true)
    ->RangeMultiplier(4)
    ->Range(1 << 10, 1 << 20);

// Permute-only rows: the scattered pair-swap walk the engine runs below
// its COBRA threshold vs a CobraBitReversal built here with the engine's
// default tile width, as a pure permutation and with the opener stage fused
// into tile write-back. These isolate the former ~35%-of-forward
// bit-reversal cost as tracked numbers.
void BM_InplacePermute(benchmark::State& state, int mode, bool dispatched) {
  use_backend(state, dispatched);
  const auto n = static_cast<std::size_t>(state.range(0));
  const unsigned log2n = log2_floor(n);
  const fft::CobraBitReversal cobra(log2n,
                                    fft::InplaceTuning{}.cobra_tile_bits);
  const auto opener = mode < 2 ? fft::CobraBitReversal::Opener::kNone
                      : (log2n & 1u)
                          ? fft::CobraBitReversal::Opener::kRadix2Pairs
                          : fft::CobraBitReversal::Opener::kRadix4First;
  std::vector<std::size_t> pairs;  // (i, rev(i)) with i < rev(i)
  for (std::size_t i = 0; mode == 0 && i < n; ++i) {
    const std::size_t r = fft::reverse_bits(i, log2n);
    if (i < r) pairs.insert(pairs.end(), {i, r});
  }
  auto x = random_vector(n, InputDistribution::kUniform, 6);
  for (auto _ : state) {
    if (mode == 0) {
      for (std::size_t p = 0; p < pairs.size(); p += 2) {
        std::swap(x[pairs[p]], x[pairs[p + 1]]);
      }
    } else {
      cobra.run(x.data(), opener, /*inverse=*/false);
    }
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK_CAPTURE(BM_InplacePermute, pairswap, 0, true)
    ->RangeMultiplier(4)
    ->Range(1 << 12, 1 << 20);
BENCHMARK_CAPTURE(BM_InplacePermute, cobra, 1, true)
    ->RangeMultiplier(4)
    ->Range(1 << 12, 1 << 20);
BENCHMARK_CAPTURE(BM_InplacePermute, cobra_fused_opener, 2, true)
    ->RangeMultiplier(4)
    ->Range(1 << 12, 1 << 20);

void BM_FftBluestein(benchmark::State& state) {
  use_backend(state, true);
  // Large prime: exercises the chirp-z path.
  const std::size_t n = 4099;
  auto x = random_vector(n, InputDistribution::kUniform, 3);
  std::vector<cplx> out(n);
  fft::Fft engine(n);
  for (auto _ : state) {
    engine.execute(x.data(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_FftBluestein);

void protected_bench(benchmark::State& state, const abft::Options& opts) {
  use_backend(state, true);
  const auto n = static_cast<std::size_t>(state.range(0));
  auto x = random_vector(n, InputDistribution::kUniform, 4);
  std::vector<cplx> out(n);
  abft::Stats stats;
  abft::protected_transform(x.data(), out.data(), n, opts, stats);  // warm
  for (auto _ : state) {
    abft::Stats s;
    abft::protected_transform(x.data(), out.data(), n, opts, s);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_OfflineComp(benchmark::State& state) {
  protected_bench(state, abft::Options::offline_opt(false));
}
void BM_OnlineComp(benchmark::State& state) {
  protected_bench(state, abft::Options::online_opt(false));
}
void BM_OnlineMem(benchmark::State& state) {
  protected_bench(state, abft::Options::online_opt(true));
}
BENCHMARK(BM_OfflineComp)->RangeMultiplier(4)->Range(1 << 12, 1 << 18);
BENCHMARK(BM_OnlineComp)->RangeMultiplier(4)->Range(1 << 12, 1 << 18);
BENCHMARK(BM_OnlineMem)->RangeMultiplier(4)->Range(1 << 12, 1 << 18);

// Staging-transpose rows at the 2^18 protected-scheme shapes: the 512x64
// gather of 64 strided columns (row stride 512) into contiguous staging and
// the 64x512 scatter back, each as the naive loop and as the cache-tiled
// primitive. Successive iterations walk the 8 column batches of the array,
// as the schemes do.
void BM_TransposeTiled(benchmark::State& state, bool scatter, bool tiled) {
  constexpr std::size_t kLd = 512, kBatch = 64, kN = kLd * kLd;
  auto a = random_vector(kN, InputDistribution::kUniform, 7);
  std::vector<cplx> stage(kBatch * kLd);
  std::size_t i0 = 0;
  for (auto _ : state) {
    const cplx* src = scatter ? stage.data() : a.data() + i0;
    cplx* dst = scatter ? a.data() + i0 : stage.data();
    const std::size_t rows = scatter ? kBatch : kLd;
    const std::size_t cols = scatter ? kLd : kBatch;
    if (tiled) {
      transpose_tiled(src, kLd, dst, kLd, rows, cols);
    } else {
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) dst[c * kLd + r] = src[r * kLd + c];
      }
    }
    benchmark::DoNotOptimize(dst);
    benchmark::ClobberMemory();
    i0 = (i0 + kBatch) % kLd;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatch * kLd));
}
BENCHMARK_CAPTURE(BM_TransposeTiled, gather_naive, false, false);
BENCHMARK_CAPTURE(BM_TransposeTiled, gather_tiled, false, true);
BENCHMARK_CAPTURE(BM_TransposeTiled, scatter_naive, true, false);
BENCHMARK_CAPTURE(BM_TransposeTiled, scatter_tiled, true, true);

void BM_InplaceOnline(benchmark::State& state) {
  use_backend(state, true);
  const auto n = static_cast<std::size_t>(state.range(0));
  auto x = random_vector(n, InputDistribution::kUniform, 5);
  for (auto _ : state) {
    state.PauseTiming();
    auto copy = x;
    state.ResumeTiming();
    abft::Stats s;
    abft::inplace_online_transform(copy.data(), n,
                                   abft::Options::online_opt(true), s);
    benchmark::DoNotOptimize(copy.data());
  }
}
BENCHMARK(BM_InplaceOnline)->RangeMultiplier(4)->Range(1 << 12, 1 << 18);

}  // namespace

BENCHMARK_MAIN();
