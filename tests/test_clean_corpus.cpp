// Clean-input corpus: fault-free transforms must never raise an alarm.
//
// A false alarm on clean input is a protected transform that throws (or
// returns a wrong spectrum) although nothing struck it. The inputs here
// concentrate energy the way real signals do — a chirp walks each column's
// energy across single indices, an impulse sits 12 decades above its noise
// floor, lognormal data has a heavy tail — which is where a checksum whose
// own weights carry round-off error trips its threshold. Every protected
// surface runs every family at sizes from 2^10 to 2^20 (plus the non-power
// of two 100000) with a multi-error budget t of 1 and 2, and its spectrum
// must match the library's unprotected transform within 1e-9 * peak.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <exception>
#include <numbers>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "core/ftfft.hpp"
#include "fft/inplace_radix2.hpp"

namespace ftfft {
namespace {

double unit_interval(std::mt19937_64& g) {
  return static_cast<double>(g() >> 11) * 0x1.0p-53;
}

// Box-Muller, so the draws do not depend on the standard library's
// normal_distribution.
double normal(std::mt19937_64& g) {
  const double u1 = 1.0 - unit_interval(g);  // (0, 1]: log is finite
  const double u2 = unit_interval(g);
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

std::vector<cplx> unit_chirp(std::size_t n) {
  std::vector<cplx> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double ph = std::numbers::pi * static_cast<double>(i) *
                      static_cast<double>(i) / static_cast<double>(n);
    x[i] = {std::cos(ph), std::sin(ph)};
  }
  return x;
}

std::vector<cplx> impulse_in_noise(std::size_t n) {
  std::mt19937_64 g(61 + n);
  std::vector<cplx> x(n);
  for (auto& v : x) {
    const double re = normal(g);
    v = 1e-6 * cplx{re, normal(g)};
  }
  x[n / 3] += cplx{1e6, 0.0};
  return x;
}

std::vector<cplx> pulse_train(std::size_t n) {
  std::vector<cplx> x(n);
  for (std::size_t i = 0; i < n; i += 64) x[i] = {1.0, 0.0};
  return x;
}

enum class Family { kUniform, kNormal, kChirp, kImpulse, kLognormal, kPulses };

const char* family_name(Family f) {
  switch (f) {
    case Family::kUniform: return "uniform";
    case Family::kNormal: return "normal";
    case Family::kChirp: return "chirp";
    case Family::kImpulse: return "impulse_noise";
    case Family::kLognormal: return "lognormal";
    case Family::kPulses: return "pulse_train";
  }
  return "?";
}

std::vector<cplx> make_input(Family f, std::size_t n) {
  switch (f) {
    case Family::kChirp: return unit_chirp(n);
    case Family::kImpulse: return impulse_in_noise(n);
    case Family::kPulses: return pulse_train(n);
    default: break;
  }
  std::mt19937_64 g(1000 * static_cast<std::uint64_t>(f) + n);
  std::vector<cplx> x(n);
  for (auto& v : x) {
    if (f == Family::kUniform) {
      const double re = 2.0 * unit_interval(g) - 1.0;
      v = {re, 2.0 * unit_interval(g) - 1.0};
    } else if (f == Family::kNormal) {
      const double re = normal(g);
      v = {re, normal(g)};
    } else {
      const double re = std::exp(normal(g));
      v = {re, std::exp(normal(g))};
    }
  }
  return x;
}

enum class Surface {
  kOnlineComp,
  kOnlineMem,
  kInplace,
  kOffline,
  kR2c,
  kBatchLane,
  kSharded,
};

const char* surface_name(Surface s) {
  switch (s) {
    case Surface::kOnlineComp: return "online_comp";
    case Surface::kOnlineMem: return "online_mem";
    case Surface::kInplace: return "inplace";
    case Surface::kOffline: return "offline";
    case Surface::kR2c: return "r2c";
    case Surface::kBatchLane: return "batch_lane";
    case Surface::kSharded: return "sharded";
  }
  return "?";
}

constexpr std::size_t kRanks = 4;  // sharded: N must be divisible by p^2

bool accepts(Surface s, std::size_t n) {
  if (s == Surface::kR2c) return (n & (n - 1)) == 0;
  if (s == Surface::kSharded) return n % (kRanks * kRanks) == 0;
  return true;
}

PlanConfig config(Surface s, int t) {
  PlanConfig c;
  c.memory_fault_tolerance = s != Surface::kOnlineComp;
  if (s == Surface::kOffline) c.protection = Protection::kOffline;
  c.max_correctable_errors = t;
  return c;
}

// The library's own unprotected transform of what the surface computes.
std::vector<cplx> unprotected(Surface s, const std::vector<cplx>& x,
                              const std::vector<double>& xr) {
  const std::size_t n = x.size();
  if (s == Surface::kR2c) {
    std::vector<cplx> half(n / 2 + 1);
    fft::RealFftPlan::get(n)->r2c(xr.data(), half.data());
    return half;
  }
  std::vector<cplx> out(n);
  fft::Fft(n).execute(x.data(), out.data());
  return out;
}

std::vector<cplx> protected_run(Surface s, std::vector<cplx> x,
                                std::vector<double> xr, int t) {
  const std::size_t n = x.size();
  std::vector<cplx> out(n);
  switch (s) {
    case Surface::kOnlineComp:
    case Surface::kOnlineMem:
    case Surface::kOffline:
      FtPlan(n, config(s, t)).forward(x.data(), out.data());
      return out;
    case Surface::kInplace:
      FtPlan(n, config(s, t)).forward_inplace(x.data());
      return x;
    case Surface::kR2c: {
      out.resize(n / 2 + 1);
      abft::Stats stats;
      abft::protected_r2c(xr.data(), out.data(), n,
                          make_abft_options(config(s, t)), stats);
      return out;
    }
    case Surface::kBatchLane: {
      engine::BatchEngine eng(1);
      const engine::Lane lane{x.data(), out.data()};
      const auto report =
          eng.submit_batch(std::span(&lane, 1), n,
                           {make_abft_options(config(s, t))})
              .get();
      if (!report.all_ok()) throw std::runtime_error(report.errors.front());
      return out;
    }
    case Surface::kSharded: {
      auto opts = parallel::ParallelOptions::opt_ft_fftw();
      opts.max_correctable_errors = t;
      return parallel::submit_parallel(kRanks, x, opts).get();
    }
  }
  return out;
}

double peak(const std::vector<cplx>& v) {
  double p = 0.0;
  for (const cplx& z : v) p = std::max(p, std::abs(z));
  return p;
}

using CorpusCase = std::tuple<Family, Surface>;

class CleanCorpus : public ::testing::TestWithParam<CorpusCase> {};

TEST_P(CleanCorpus, NoFalseAlarm) {
  const auto [family, surface] = GetParam();
  for (std::size_t n : {std::size_t{1} << 10, std::size_t{1} << 14,
                        std::size_t{1} << 16, std::size_t{1} << 18,
                        std::size_t{1} << 19, std::size_t{1} << 20,
                        std::size_t{100000}}) {
    if (!accepts(surface, n)) continue;
    const std::vector<cplx> x = make_input(family, n);
    std::vector<double> xr;
    if (surface == Surface::kR2c) {
      xr.resize(n);
      for (std::size_t i = 0; i < n; ++i) xr[i] = x[i].real();
    }
    const std::vector<cplx> want = unprotected(surface, x, xr);
    for (int t : {1, 2}) {
      std::vector<cplx> got;
      try {
        got = protected_run(surface, x, xr, t);
      } catch (const std::exception& e) {
        ADD_FAILURE() << "n=" << n << " t=" << t << " threw: " << e.what();
        continue;
      }
      ASSERT_EQ(got.size(), want.size());
      EXPECT_LE(inf_diff(got.data(), want.data(), want.size()),
                1e-9 * peak(want))
          << "n=" << n << " t=" << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamiliesAndSurfaces, CleanCorpus,
    ::testing::Combine(
        ::testing::Values(Family::kUniform, Family::kNormal, Family::kChirp,
                          Family::kImpulse, Family::kLognormal,
                          Family::kPulses),
        ::testing::Values(Surface::kOnlineComp, Surface::kOnlineMem,
                          Surface::kInplace, Surface::kOffline, Surface::kR2c,
                          Surface::kBatchLane, Surface::kSharded)),
    [](const ::testing::TestParamInfo<CorpusCase>& info) {
      return std::string(family_name(std::get<0>(info.param))) + "_" +
             surface_name(std::get<1>(info.param));
    });

// ---- The first clean-run regressions, on the default FtPlan path:
// inputs whose intermediate columns are dominated by one element or nearly
// empty. Their column thresholds must follow the verified layer-1 energy;
// an outlier-robust estimate of the stored column drops the very element
// that carries the column.

void expect_default_plan_matches_plain(const std::vector<cplx>& x) {
  const std::size_t n = x.size();
  std::vector<cplx> want(n);
  fft::InplaceRadix2Plan(n).forward_copy(x.data(), want.data());
  FtPlan plan(n);
  const auto got = plan.forward(x);
  EXPECT_LE(inf_diff(got.data(), want.data(), n), 1e-9 * peak(want))
      << "n=" << n;
}

TEST(OnlineMemoryClean, UnitChirpDoesNotFalseAlarm) {
  for (std::size_t n : {std::size_t{1} << 10, std::size_t{1} << 14}) {
    expect_default_plan_matches_plain(unit_chirp(n));
  }
}

TEST(OnlineMemoryClean, ImpulseInNoiseDoesNotFalseAlarm) {
  for (std::size_t n :
       {std::size_t{1} << 10, std::size_t{1} << 14, std::size_t{1} << 16}) {
    expect_default_plan_matches_plain(impulse_in_noise(n));
  }
}

TEST(OnlineMemoryClean, PulseTrainDoesNotFalseAlarm) {
  expect_default_plan_matches_plain(pulse_train(std::size_t{1} << 10));
}

}  // namespace
}  // namespace ftfft
