// Google-benchmark microbenchmarks of the checksum primitives: these are
// the per-element costs behind the section-7 op-count model.
//
// The stride-1 dot products dispatch to the active SIMD backend; the
// *_scalar vs *_dispatched variants measure the reference chain against the
// vector kernels (label column = backend that actually ran).
#include <benchmark/benchmark.h>

#include <vector>

#include "abft/dmr.hpp"
#include "bench_backend.hpp"
#include "checksum/dot.hpp"
#include "checksum/multi_error.hpp"
#include "checksum/weights.hpp"
#include "common/rng.hpp"

namespace {

using namespace ftfft;
using ftfft::bench::use_backend;

void BM_WeightedSum(benchmark::State& state, bool dispatched) {
  use_backend(state, dispatched);
  const auto n = static_cast<std::size_t>(state.range(0));
  auto x = random_vector(n, InputDistribution::kUniform, 1);
  auto w = checksum::input_checksum_vector(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(checksum::weighted_sum(w.data(), x.data(), n));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK_CAPTURE(BM_WeightedSum, scalar, false)
    ->RangeMultiplier(16)
    ->Range(1 << 10, 1 << 18);
BENCHMARK_CAPTURE(BM_WeightedSum, dispatched, true)
    ->RangeMultiplier(16)
    ->Range(1 << 10, 1 << 18);

void BM_DualWeightedSum(benchmark::State& state, bool dispatched) {
  use_backend(state, dispatched);
  const auto n = static_cast<std::size_t>(state.range(0));
  auto x = random_vector(n, InputDistribution::kUniform, 2);
  auto w = checksum::input_checksum_vector(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        checksum::dual_weighted_sum(w.data(), x.data(), n));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK_CAPTURE(BM_DualWeightedSum, scalar, false)
    ->RangeMultiplier(16)
    ->Range(1 << 10, 1 << 18);
BENCHMARK_CAPTURE(BM_DualWeightedSum, dispatched, true)
    ->RangeMultiplier(16)
    ->Range(1 << 10, 1 << 18);

// Syndrome generation for the multi-error budget (PR 9): 2t weighted
// moment sums per protected block. t = 1 is the opt-in floor (twice the
// dual-checksum moments), t = 4 the decoder's ceiling; the dispatched
// variant runs the SIMD syndrome_dot kernel over the plan-cached node
// table, the scalar variant generates u = j / n on the fly.
void BM_SyndromeSum(benchmark::State& state, int t, bool dispatched) {
  use_backend(state, dispatched);
  const auto n = static_cast<std::size_t>(state.range(0));
  auto x = random_vector(n, InputDistribution::kUniform, 9);
  auto w = checksum::input_checksum_vector(n);
  const auto nodes = checksum::shared_syndrome_nodes(n);
  const double* nodes2 = dispatched ? nodes->data() : nullptr;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        checksum::syndrome_sum(w.data(), x.data(), n, 1, 2 * t, nodes2));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK_CAPTURE(BM_SyndromeSum, t1_scalar, 1, false)
    ->RangeMultiplier(16)
    ->Range(1 << 10, 1 << 18);
BENCHMARK_CAPTURE(BM_SyndromeSum, t1_dispatched, 1, true)
    ->RangeMultiplier(16)
    ->Range(1 << 10, 1 << 18);
BENCHMARK_CAPTURE(BM_SyndromeSum, t2_dispatched, 2, true)
    ->RangeMultiplier(16)
    ->Range(1 << 10, 1 << 18);
BENCHMARK_CAPTURE(BM_SyndromeSum, t4_dispatched, 4, true)
    ->RangeMultiplier(16)
    ->Range(1 << 10, 1 << 18);

// Pure decode cost: locator solve + root extraction + Vandermonde solve +
// all-moment residual check, n-independent (the O(n) syndrome recompute is
// measured separately above). This is the price of one escalation attempt
// on the rare mismatch path.
void BM_SyndromeDecode(benchmark::State& state, int t) {
  const std::size_t n = 1 << 16;
  auto x = random_vector(n, InputDistribution::kUniform, 10);
  auto w = checksum::input_checksum_vector(n);
  const auto nodes = checksum::shared_syndrome_nodes(n);
  const auto stored =
      checksum::syndrome_sum(w.data(), x.data(), n, 1, 2 * t, nodes->data());
  Rng rng(11);
  for (int e = 0; e < t; ++e) {
    x[rng.below(n)] += cplx{3.0 + e, -2.0};
  }
  const auto current =
      checksum::syndrome_sum(w.data(), x.data(), n, 1, 2 * t, nodes->data());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        checksum::locate_errors(stored, current, w.data(), n, 1e-9, t));
  }
}
BENCHMARK_CAPTURE(BM_SyndromeDecode, t1, 1);
BENCHMARK_CAPTURE(BM_SyndromeDecode, t2, 2);
BENCHMARK_CAPTURE(BM_SyndromeDecode, t4, 4);

void BM_Energy(benchmark::State& state, bool dispatched) {
  use_backend(state, dispatched);
  const auto n = static_cast<std::size_t>(state.range(0));
  auto x = random_vector(n, InputDistribution::kUniform, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(checksum::energy(x.data(), n));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK_CAPTURE(BM_Energy, scalar, false)
    ->RangeMultiplier(16)
    ->Range(1 << 10, 1 << 18);
BENCHMARK_CAPTURE(BM_Energy, dispatched, true)
    ->RangeMultiplier(16)
    ->Range(1 << 10, 1 << 18);

// The memory-FT slot fold: one weighted row of the CMCG (the online
// column-sum fold is the same kernel with a null weight) folded into the
// per-slot dual sums and energies. Widths are the slot counts of 2^16-2^24
// transforms.
void BM_FoldRow(benchmark::State& state, bool dispatched) {
  use_backend(state, dispatched);
  const auto width = static_cast<std::size_t>(state.range(0));
  auto row = random_vector(width, InputDistribution::kUniform, 12);
  const cplx w = checksum::input_checksum_vector(width)[1];
  std::vector<cplx> a1(width), a2(width);
  std::vector<double> e(width);
  for (auto _ : state) {
    checksum::fold_row(row.data(), width, &w, 3.0, a1.data(), a2.data(),
                       e.data());
    benchmark::DoNotOptimize(a1.data());
    benchmark::DoNotOptimize(a2.data());
    benchmark::DoNotOptimize(e.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(width));
}
BENCHMARK_CAPTURE(BM_FoldRow, scalar, false)
    ->RangeMultiplier(2)
    ->Range(1 << 8, 1 << 12);
BENCHMARK_CAPTURE(BM_FoldRow, dispatched, true)
    ->RangeMultiplier(2)
    ->Range(1 << 8, 1 << 12);

// The four-chain plain sum of the online column check and the in-place
// permutation guard.
void BM_PlainSum(benchmark::State& state, bool dispatched) {
  use_backend(state, dispatched);
  const auto n = static_cast<std::size_t>(state.range(0));
  auto x = random_vector(n, InputDistribution::kUniform, 13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(checksum::plain_sum(x.data(), n));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK_CAPTURE(BM_PlainSum, scalar, false)
    ->RangeMultiplier(2)
    ->Range(1 << 8, 1 << 12);
BENCHMARK_CAPTURE(BM_PlainSum, dispatched, true)
    ->RangeMultiplier(2)
    ->Range(1 << 8, 1 << 12);

void BM_Omega3Sum(benchmark::State& state) {
  use_backend(state, true);
  const auto n = static_cast<std::size_t>(state.range(0));
  auto x = random_vector(n, InputDistribution::kUniform, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(checksum::omega3_weighted_sum(x.data(), n));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Omega3Sum)->RangeMultiplier(16)->Range(1 << 10, 1 << 18);

// One exact rA generation (one tan per element); plans build it once per
// size and cache it.
void BM_RaGen(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(checksum::input_checksum_vector(n));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_RaGen)->Arg(1 << 18)->Arg(1 << 20);

void BM_DmrTwiddle(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto x = random_vector(n, InputDistribution::kUniform, 4);
  std::vector<cplx> out(n);
  // The held-tables overload every scheme runs: tables resolved once.
  const auto tables = abft::TwiddleTables::get(n * 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(abft::dmr_twiddle_multiply(
        *tables, x.data(), 1, out.data(), n, 3, 0, 0, nullptr));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DmrTwiddle)->RangeMultiplier(16)->Range(1 << 10, 1 << 16);

}  // namespace

BENCHMARK_MAIN();
