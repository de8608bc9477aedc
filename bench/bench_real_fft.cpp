// Google-benchmark rows for the real-input transforms (PR 8): the headline
// comparison is BM_R2c vs BM_ComplexForwardBaseline at equal n — the
// conjugate-symmetry packing runs an n/2-point in-place complex transform
// plus an O(n) split pass, so r2c should come in well under the same-length
// complex forward (the PR claims >= 1.5x at 2^16..2^20). The protected rows
// price the ABFT overhead on top, and the c2r rows cover the inverse side.
#include <benchmark/benchmark.h>

#include <vector>

#include "abft/options.hpp"
#include "abft/real_protection.hpp"
#include "bench_backend.hpp"
#include "common/rng.hpp"
#include "fft/inplace_radix2.hpp"
#include "fft/real_fft.hpp"

namespace {

using namespace ftfft;
using ftfft::bench::use_backend;

std::vector<double> random_signal(std::size_t n, std::uint64_t seed) {
  const auto z = random_vector(n, InputDistribution::kUniform, seed);
  std::vector<double> x(n);
  for (std::size_t j = 0; j < n; ++j) x[j] = z[j].real();
  return x;
}

// The yardstick the headline ratio divides by: the optimized in-place
// complex forward of the SAME length n that a caller without r2c would run
// on the zero-padded-imaginary signal.
void BM_ComplexForwardBaseline(benchmark::State& state, bool dispatched) {
  use_backend(state, dispatched);
  const auto n = static_cast<std::size_t>(state.range(0));
  auto x = random_vector(n, InputDistribution::kUniform, 81);
  const auto plan = fft::InplaceRadix2Plan::get(n);
  for (auto _ : state) {
    plan->forward(x.data());
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK_CAPTURE(BM_ComplexForwardBaseline, scalar, false)
    ->RangeMultiplier(4)
    ->Range(1 << 12, 1 << 20);
BENCHMARK_CAPTURE(BM_ComplexForwardBaseline, dispatched, true)
    ->RangeMultiplier(4)
    ->Range(1 << 12, 1 << 20);

void BM_R2c(benchmark::State& state, bool dispatched) {
  use_backend(state, dispatched);
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto x = random_signal(n, 82);
  std::vector<cplx> spec(n / 2 + 1);
  const auto plan = fft::RealFftPlan::get(n);
  for (auto _ : state) {
    plan->r2c(x.data(), spec.data());
    benchmark::DoNotOptimize(spec.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK_CAPTURE(BM_R2c, scalar, false)
    ->RangeMultiplier(4)
    ->Range(1 << 12, 1 << 20);
BENCHMARK_CAPTURE(BM_R2c, dispatched, true)
    ->RangeMultiplier(4)
    ->Range(1 << 12, 1 << 20);

void BM_C2r(benchmark::State& state, bool dispatched) {
  use_backend(state, dispatched);
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto x = random_signal(n, 83);
  std::vector<cplx> spec(n / 2 + 1);
  std::vector<double> back(n);
  const auto plan = fft::RealFftPlan::get(n);
  plan->r2c(x.data(), spec.data());
  for (auto _ : state) {
    plan->c2r(spec.data(), back.data());
    benchmark::DoNotOptimize(back.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK_CAPTURE(BM_C2r, scalar, false)
    ->RangeMultiplier(4)
    ->Range(1 << 12, 1 << 20);
BENCHMARK_CAPTURE(BM_C2r, dispatched, true)
    ->RangeMultiplier(4)
    ->Range(1 << 12, 1 << 20);

void BM_ProtectedR2c(benchmark::State& state) {
  use_backend(state, true);
  const auto n = static_cast<std::size_t>(state.range(0));
  auto x = random_signal(n, 84);
  std::vector<cplx> spec(n / 2 + 1);
  const abft::Options opts = abft::Options::online_opt(true);
  const auto plan = abft::RealProtectionPlan::get(n);
  const auto cplan = abft::resolve_real_packed_plan(n, opts);
  abft::Stats stats;
  for (auto _ : state) {
    abft::protected_r2c(x.data(), spec.data(), n, opts, stats, plan.get(),
                        cplan.get());
    benchmark::DoNotOptimize(spec.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ProtectedR2c)->RangeMultiplier(4)->Range(1 << 12, 1 << 20);

void BM_ProtectedC2r(benchmark::State& state) {
  use_backend(state, true);
  const auto n = static_cast<std::size_t>(state.range(0));
  auto x = random_signal(n, 85);
  std::vector<cplx> spec(n / 2 + 1);
  std::vector<double> back(n);
  const abft::Options opts = abft::Options::online_opt(true);
  const auto plan = abft::RealProtectionPlan::get(n);
  const auto cplan = abft::resolve_real_packed_plan(n, opts);
  plan->real_plan().r2c(x.data(), spec.data());
  abft::Stats stats;
  for (auto _ : state) {
    abft::protected_c2r(spec.data(), back.data(), n, opts, stats, plan.get(),
                        cplan.get());
    benchmark::DoNotOptimize(back.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ProtectedC2r)->RangeMultiplier(4)->Range(1 << 12, 1 << 20);

}  // namespace

BENCHMARK_MAIN();
