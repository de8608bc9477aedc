// Multi-error localization and correction (PR 9): the 2t-moment syndrome
// decoder of checksum/multi_error.hpp, its wiring inside the sequential
// ABFT schemes and the parallel transpose, and the invariants every budget
// keeps (the dual pair decodes as the t = 1 moment set, graceful
// degradation beyond the budget).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <numbers>
#include <vector>

#include "abft/inplace.hpp"
#include "abft/offline.hpp"
#include "abft/online.hpp"
#include "abft/options.hpp"
#include "checksum/dot.hpp"
#include "checksum/multi_error.hpp"
#include "checksum/weights.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "fault/injector.hpp"
#include "fft/fft.hpp"
#include "parallel/parallel_fft.hpp"
#include "roundoff/model.hpp"
#include "simd/dispatch.hpp"

namespace ftfft {
namespace {

using abft::Options;
using abft::Stats;
using checksum::DualSum;
using checksum::SyndromeSet;
using fault::FaultSpec;
using fault::Phase;
using simd::Backend;

std::vector<Backend> available_backends() {
  std::vector<Backend> out{Backend::kScalar};
  if (simd::backend_available(Backend::kAvx2)) out.push_back(Backend::kAvx2);
  if (simd::backend_available(Backend::kNeon)) out.push_back(Backend::kNeon);
  return out;
}

struct BackendGuard {
  Backend prev = simd::active_backend();
  ~BackendGuard() { simd::set_backend(prev); }
};

// ------------------------------------------------------------ decoder unit

TEST(MultiError, ClampRange) {
  EXPECT_EQ(checksum::clamp_max_errors(-3), 1);
  EXPECT_EQ(checksum::clamp_max_errors(0), 1);
  EXPECT_EQ(checksum::clamp_max_errors(1), 1);
  EXPECT_EQ(checksum::clamp_max_errors(4), 4);
  EXPECT_EQ(checksum::clamp_max_errors(99), checksum::kMaxCorrectableErrors);
}

TEST(MultiError, CleanDataReportsNoMismatch) {
  const std::size_t n = 96;
  auto x = random_vector(n, InputDistribution::kNormal, 901);
  const auto s = checksum::syndrome_sum(nullptr, x.data(), n, 1, 4);
  auto rep = checksum::repair_errors(s, x.data(), 1, nullptr, n, 1e-9, 2);
  EXPECT_FALSE(rep.mismatch);
  EXPECT_FALSE(rep.corrected);
  EXPECT_EQ(rep.errors, 0);
}

TEST(MultiError, SingleErrorDecodesThroughTheMultiPath) {
  const std::size_t n = 128;
  auto x = random_vector(n, InputDistribution::kUniform, 902);
  const auto pristine = x;
  const auto stored = checksum::syndrome_sum(nullptr, x.data(), n, 1, 4);
  x[33] += cplx{2.5, -0.75};
  const auto rep = checksum::repair_errors(stored, x.data(), 1, nullptr, n,
                                           1e-9, /*max_errors=*/2);
  ASSERT_TRUE(rep.mismatch);
  ASSERT_TRUE(rep.corrected);
  EXPECT_EQ(rep.errors, 1);
  for (std::size_t j = 0; j < n; ++j) {
    EXPECT_NEAR(std::abs(x[j] - pristine[j]), 0.0, 1e-9) << j;
  }
}

// The pin the syndromes are built on: the dual checksums, the t = 1 moment
// set, *cannot* localize two simultaneous corruptions. If this ever starts
// passing as corrected, the t = 1 decode has silently changed semantics.
TEST(MultiError, DualChecksumRefusesTheDoubleError) {
  const std::size_t n = 128;
  auto x = random_vector(n, InputDistribution::kUniform, 903);
  const DualSum stored = checksum::dual_weighted_sum(nullptr, x.data(), n);
  x[17] += cplx{1.0, 0.7};
  x[90] += cplx{-0.6, 2.0};
  const auto rep = checksum::repair_errors(checksum::dual_moments(stored, n),
                                           x.data(), 1, nullptr, n, 1e-9,
                                           /*max_errors=*/1);
  EXPECT_TRUE(rep.mismatch);
  EXPECT_FALSE(rep.corrected);
}

// ... and the syndrome decoder corrects the exact same plant at t = 2.
TEST(MultiError, SyndromeDecoderCorrectsTheSameDoubleError) {
  const std::size_t n = 128;
  auto x = random_vector(n, InputDistribution::kUniform, 903);
  const auto pristine = x;
  const auto stored = checksum::syndrome_sum(nullptr, x.data(), n, 1, 4);
  x[17] += cplx{1.0, 0.7};
  x[90] += cplx{-0.6, 2.0};
  const auto rep = checksum::repair_errors(stored, x.data(), 1, nullptr, n,
                                           1e-9, /*max_errors=*/2);
  ASSERT_TRUE(rep.mismatch);
  ASSERT_TRUE(rep.corrected);
  EXPECT_EQ(rep.errors, 2);
  for (std::size_t j = 0; j < n; ++j) {
    EXPECT_NEAR(std::abs(x[j] - pristine[j]), 0.0, 1e-9) << j;
  }
}

TEST(MultiError, DecodesBurstsUpToFourErrors) {
  const std::size_t n = 256;
  for (int t = 2; t <= checksum::kMaxCorrectableErrors; ++t) {
    auto x = random_vector(n, InputDistribution::kNormal, 910 + t);
    const auto pristine = x;
    const auto stored = checksum::syndrome_sum(nullptr, x.data(), n, 1, 2 * t);
    Rng rng(920 + t);
    // Adjacent-cluster plant (a spatial burst) plus one far outlier.
    const std::size_t base = 40;
    for (int e = 0; e < t - 1; ++e) {
      x[base + static_cast<std::size_t>(e)] +=
          cplx{rng.uniform(0.5, 8.0), rng.uniform(-8.0, -0.5)};
    }
    x[n - 3] += cplx{-4.0, 1.5};
    const auto rep =
        checksum::repair_errors(stored, x.data(), 1, nullptr, n, 1e-9, t);
    ASSERT_TRUE(rep.mismatch) << "t=" << t;
    ASSERT_TRUE(rep.corrected) << "t=" << t;
    EXPECT_EQ(rep.errors, t) << "t=" << t;
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_NEAR(std::abs(x[j] - pristine[j]), 0.0, 1e-8)
          << "t=" << t << " j=" << j;
    }
  }
}

// t + 1 simultaneous errors: no e <= t hypothesis reproduces every stored
// moment, so the decoder must report detected-but-uncorrected instead of
// fabricating a wrong correction.
TEST(MultiError, GracefulDegradationBeyondTheBudget) {
  const std::size_t n = 128;
  auto x = random_vector(n, InputDistribution::kUniform, 930);
  const auto stored = checksum::syndrome_sum(nullptr, x.data(), n, 1, 4);
  x[5] += cplx{1.5, 0.0};
  x[60] += cplx{0.0, -2.5};
  x[100] += cplx{3.0, 3.0};
  const auto rep = checksum::repair_errors(stored, x.data(), 1, nullptr, n,
                                           1e-9, /*max_errors=*/2);
  EXPECT_TRUE(rep.mismatch);
  EXPECT_FALSE(rep.corrected);
}

TEST(MultiError, WeightedRegionDecodes) {
  const std::size_t n = 128;
  auto x = random_vector(n, InputDistribution::kUniform, 940);
  const auto pristine = x;
  const auto ra = checksum::input_checksum_vector(n);
  const auto stored = checksum::syndrome_sum(ra.data(), x.data(), n, 1, 4);
  x[8] += cplx{0.9, -0.4};
  x[77] += cplx{-1.1, 0.3};
  const auto rep =
      checksum::repair_errors(stored, x.data(), 1, ra.data(), n, 1e-9, 2);
  ASSERT_TRUE(rep.corrected);
  EXPECT_EQ(rep.errors, 2);
  for (std::size_t j = 0; j < n; ++j) {
    EXPECT_NEAR(std::abs(x[j] - pristine[j]), 0.0, 1e-9) << j;
  }
}

TEST(MultiError, StridedRegionDecodes) {
  const std::size_t n = 64, stride = 4;
  auto flat = random_vector(n * stride, InputDistribution::kUniform, 950);
  const auto pristine = flat;
  const auto stored =
      checksum::syndrome_sum(nullptr, flat.data(), n, stride, 4);
  flat[9 * stride] += cplx{2.0, 1.0};
  flat[40 * stride] += cplx{-1.0, 0.5};
  const auto rep =
      checksum::repair_errors(stored, flat.data(), stride, nullptr, n, 1e-9, 2);
  ASSERT_TRUE(rep.corrected);
  EXPECT_EQ(rep.errors, 2);
  for (std::size_t j = 0; j < flat.size(); ++j) {
    EXPECT_NEAR(std::abs(flat[j] - pristine[j]), 0.0, 1e-9) << j;
  }
}

TEST(MultiError, IncrementalAccumulationMatchesBatchGeneration) {
  const std::size_t n = 100;
  auto x = random_vector(n, InputDistribution::kNormal, 960);
  const auto batch = checksum::syndrome_sum(nullptr, x.data(), n, 1, 6);
  SyndromeSet inc;
  inc.moments = 6;
  const double inv_n = 1.0 / static_cast<double>(n);
  for (std::size_t j = 0; j < n; ++j) inc.accumulate(j, x[j], inv_n);
  for (int m = 0; m < 6; ++m) {
    EXPECT_NEAR(std::abs(inc.s[m] - batch.s[m]), 0.0,
                1e-12 * static_cast<double>(n))
        << "moment " << m;
  }
}

// The plan-cached node table routes the reduction through the active SIMD
// backend's syndrome_dot kernel; every backend must agree with the scalar
// on-the-fly generation within reassociation round-off.
TEST(MultiError, NodeTableKernelAgreesWithScalarOnEveryBackend) {
  const std::size_t n = 1024;
  auto x = random_vector(n, InputDistribution::kUniform, 970);
  const auto nodes = checksum::shared_syndrome_nodes(n);
  const auto scalar_ref = checksum::syndrome_sum(nullptr, x.data(), n, 1, 8);
  BackendGuard guard;
  for (Backend b : available_backends()) {
    ASSERT_TRUE(simd::set_backend(b));
    const auto got =
        checksum::syndrome_sum(nullptr, x.data(), n, 1, 8, nodes->data());
    for (int m = 0; m < 8; ++m) {
      EXPECT_NEAR(std::abs(got.s[m] - scalar_ref.s[m]), 0.0, 1e-9)
          << "backend=" << simd::backend_name(b) << " moment=" << m;
    }
  }
}

// ------------------------------------------- t = 1: the dual decoder oracle

// The single-error decoder that repaired dual-checksum regions before every
// region went through repair_errors: repair_single_error with its locate
// step and erasure fallback, copied as it was when it was removed (only the
// result type is cut down to what the comparison reads). The one decoder
// must repair every single error it repaired, bit for bit.
namespace dual_oracle {

constexpr double kIndexSlack = 0.25;
constexpr double kEpsilon = std::numeric_limits<double>::epsilon();

struct LocateResult {
  bool mismatch = false;
  bool valid = false;
  std::size_t index = 0;
  cplx delta{0.0, 0.0};
};

struct RepairResult {
  bool mismatch = false;
  bool corrected = false;
};

bool finite(const DualSum& s) {
  return std::isfinite(s.plain.real()) && std::isfinite(s.plain.imag()) &&
         std::isfinite(s.indexed.real()) && std::isfinite(s.indexed.imag());
}

LocateResult locate_single_error(const DualSum& stored, const DualSum& current,
                                 const cplx* w, std::size_t n, double eta) {
  LocateResult out;
  const cplx d1 = current.plain - stored.plain;
  const cplx d2 = current.indexed - stored.indexed;
  if (std::abs(d1) <= eta) return out;
  out.mismatch = true;
  const cplx ratio = d2 / d1;
  const double idx = ratio.real();
  const double rounded = std::round(idx);
  const double imag_slack = kIndexSlack * (1.0 + std::abs(rounded));
  if (!std::isfinite(idx) || !std::isfinite(ratio.imag()) ||
      std::abs(idx - rounded) > kIndexSlack ||
      std::abs(ratio.imag()) > imag_slack || rounded < 0.0 ||
      rounded >= static_cast<double>(n)) {
    return out;
  }
  out.valid = true;
  out.index = static_cast<std::size_t>(rounded);
  out.delta = (w == nullptr) ? d1 : d1 / w[out.index];
  return out;
}

std::size_t largest_weighted_term(const cplx* data, std::size_t stride,
                                  const cplx* w, std::size_t n) {
  std::size_t j = 0;
  double top = -1.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double mag =
        std::abs(data[i * stride]) * (w == nullptr ? 1.0 : std::abs(w[i]));
    if (!(mag <= top)) {
      top = mag;
      j = i;
      if (std::isnan(mag)) break;
    }
  }
  return j;
}

RepairResult repair_single_error(const DualSum& stored, cplx* data,
                                 std::size_t stride, const cplx* w,
                                 std::size_t n, double eta, int max_iters) {
  RepairResult out;
  bool too_large = false;
  const auto give_up = [&] {
    if (too_large) {  // rebuild_largest, verified against both duals
      const std::size_t j = largest_weighted_term(data, stride, w, n);
      cplx& x = data[j * stride];
      const cplx old = x;
      x = cplx{0.0, 0.0};
      const cplx rest = checksum::dual_weighted_sum(w, data, n, stride).plain;
      x = (stored.plain - rest) / (w == nullptr ? cplx{1.0, 0.0} : w[j]);
      const DualSum cur = checksum::dual_weighted_sum(w, data, n, stride);
      out.corrected = std::abs(cur.plain - stored.plain) <= eta &&
                      std::abs(cur.indexed - stored.indexed) <= eta;
      if (!out.corrected) x = old;
    }
    return out;
  };
  for (int iter = 0; iter < max_iters; ++iter) {
    const DualSum cur = checksum::dual_weighted_sum(w, data, n, stride);
    too_large = too_large || !finite(cur);
    const LocateResult loc = locate_single_error(stored, cur, w, n, eta);
    if (!loc.mismatch) {
      out.corrected = out.mismatch;
      return out;
    }
    out.mismatch = true;
    if (!loc.valid) return give_up();
    too_large = too_large ||
                kEpsilon * std::abs(cur.plain - stored.plain) > eta;
    if (loc.valid) data[loc.index * stride] -= loc.delta;
  }
  const DualSum cur = checksum::dual_weighted_sum(w, data, n, stride);
  out.corrected = !locate_single_error(stored, cur, w, n, eta).mismatch;
  return out.corrected ? out : give_up();
}

}  // namespace dual_oracle

// One dual-checksummed region (U(-1,1) or N(0,1) data, all-ones or rA
// weights) with its threshold: the memory coefficient for all-ones sums,
// the computational one for rA sums, as the schemes pick them.
struct DualRegion {
  std::size_t n;
  AlignedVector<cplx> ra;
  std::vector<cplx> x;
  const cplx* w;
  DualSum stored;
  double eta;

  DualRegion(std::size_t n_, bool weighted, InputDistribution dist)
      : n(n_),
        ra(weighted ? checksum::input_checksum_vector(n_)
                    : AlignedVector<cplx>{}),
        x(random_vector(n_, dist, 77 + n_)),
        w(weighted ? ra.data() : nullptr) {
    const auto de = checksum::dual_weighted_sum_energy(w, x.data(), n);
    stored = de.sums;
    eta = roundoff::eta_from_coeff(
        weighted ? roundoff::practical_eta_coeff(n)
                 : roundoff::practical_eta_memory_coeff(n),
        std::sqrt(de.energy / (2.0 * static_cast<double>(n))));
  }

  // Repairs `faulty` with the oracle and with the one decoder at the same
  // round budget. Where the oracle finds the region clean or corrects it,
  // the decoder must agree bit for bit; where only the decoder corrects,
  // the data must be back within 1e-9 of pristine. (The oracle's callers
  // passed Options::max_retries, 4 by default, as its round budget; the
  // budgets part only on corruptions that need a fifth or sixth round,
  // which the old path rebuilt as erasures instead.)
  void check(const std::vector<cplx>& faulty) const {
    auto old_data = faulty;
    auto new_data = faulty;
    const auto old_rep = dual_oracle::repair_single_error(
        stored, old_data.data(), 1, w, n, eta, checksum::kRepairRounds);
    const auto new_rep = checksum::repair_errors(
        checksum::dual_moments(stored, n), new_data.data(), 1, w, n, eta,
        /*max_errors=*/1);
    if (old_rep.corrected || !old_rep.mismatch) {
      EXPECT_EQ(new_rep.mismatch, old_rep.mismatch);
      EXPECT_EQ(new_rep.corrected, old_rep.corrected);
      EXPECT_EQ(std::memcmp(new_data.data(), old_data.data(),
                            n * sizeof(cplx)),
                0);
    } else if (new_rep.corrected) {
      EXPECT_LE(inf_diff(new_data.data(), x.data(), n), 1e-9);
    }
  }
};

void for_each_dual_region(const std::function<void(const DualRegion&)>& f) {
  for (std::size_t n : {std::size_t{256}, std::size_t{4096},
                        std::size_t{65536}, std::size_t{100000}}) {
    for (bool weighted : {false, true}) {
      for (auto dist : {InputDistribution::kUniform,
                        InputDistribution::kNormal}) {
        SCOPED_TRACE(testing::Message()
                     << "n=" << n << " rA=" << weighted
                     << " normal=" << (dist == InputDistribution::kNormal));
        f(DualRegion(n, weighted, dist));
      }
    }
  }
}

TEST(DualDecoderOracle, SingleDeltasRepairAsTheDualDecoderDid) {
  for_each_dual_region([](const DualRegion& r) {
    Rng rng(5 + r.n + (r.w != nullptr));
    for (int k = 0; k < 40; ++k) {
      auto faulty = r.x;
      const double mag = std::pow(10.0, rng.uniform(-6.0, 12.0));
      const double phase = rng.uniform(0.0, 2.0 * std::numbers::pi);
      faulty[rng.below(r.n)] +=
          cplx{mag * std::cos(phase), mag * std::sin(phase)};
      r.check(faulty);
    }
  });
}

TEST(DualDecoderOracle, BitFlipsRepairAsTheDualDecoderDid) {
  for_each_dual_region([](const DualRegion& r) {
    Rng rng(17 + r.n + (r.w != nullptr));
    for (unsigned bit = 40; bit <= 62; ++bit) {
      for (int k = 0; k < 4; ++k) {
        auto faulty = r.x;
        double* part =
            reinterpret_cast<double*>(&faulty[rng.below(r.n)]) + rng.below(2);
        std::uint64_t bits;
        std::memcpy(&bits, part, sizeof bits);
        bits ^= std::uint64_t{1} << bit;
        std::memcpy(part, &bits, sizeof bits);
        r.check(faulty);
      }
    }
  });
}

// ------------------------------------------------- scheme escalation (e2e)

constexpr std::size_t kN = 1024;  // online: m = k = 32

std::vector<cplx> truth(const std::vector<cplx>& x) { return fft::fft(x); }

double max_dev(const std::vector<cplx>& a, const std::vector<cplx>& b) {
  return inf_diff(a.data(), b.data(), a.size());
}

// Two memory faults in the offline scheme's single protected input region.
TEST(MultiErrorScheme, OfflineDoubleInputFault) {
  auto x = random_vector(kN, InputDistribution::kUniform, 1001);
  const auto want = truth(x);

  // At the default budget (t = 1) the dual checksums carry only two values,
  // so a two-error burst is outside the fault model: the scheme either
  // refuses (UncorrectableError) or — when the residual ratio of the burst
  // happens to snap to an integer index — accepts a wrong one-element "fix"
  // and delivers a corrupt spectrum. This pair of faults hits the second
  // case; the assertion documents the vulnerability the t = 2 budget closes.
  {
    auto in = x;
    fault::Injector inj;
    inj.schedule(FaultSpec::memory_set(Phase::kInputAfterChecksum, 0, 100,
                                       {5.0, -5.0}));
    inj.schedule(FaultSpec::memory_set(Phase::kInputAfterChecksum, 0, 700,
                                       {-3.0, 4.0}));
    Options opts = Options::offline_opt(true);
    opts.max_correctable_errors = 1;  // pin: the suite may run under
                                      // FTFFT_MAX_ERRORS > 1
    opts.injector = &inj;
    std::vector<cplx> out(kN);
    Stats stats;
    bool threw = false;
    try {
      abft::offline_transform(in.data(), out.data(), kN, opts, stats);
    } catch (const UncorrectableError&) {
      threw = true;
    }
    if (!threw) {
      EXPECT_GT(max_dev(out, want), 1e-6)
          << "a double fault at t = 1 unexpectedly produced a clean "
             "spectrum; the t = 2 leg below would then be vacuous";
    }
  }

  // At t = 2 the syndrome decoder corrects both and the transform matches
  // the clean spectrum.
  {
    auto in = x;
    fault::Injector inj;
    inj.schedule(FaultSpec::memory_set(Phase::kInputAfterChecksum, 0, 100,
                                       {5.0, -5.0}));
    inj.schedule(FaultSpec::memory_set(Phase::kInputAfterChecksum, 0, 700,
                                       {-3.0, 4.0}));
    Options opts = Options::offline_opt(true);
    opts.max_correctable_errors = 2;
    opts.injector = &inj;
    std::vector<cplx> out(kN);
    Stats stats;
    abft::offline_transform(in.data(), out.data(), kN, opts, stats);
    EXPECT_LT(max_dev(out, want), 1e-8);
    EXPECT_EQ(inj.fired_count(), 2u);
    EXPECT_EQ(stats.multi_errors_corrected, 2u);
    EXPECT_GE(stats.mem_errors_corrected, 1u);
  }
}

// Two faults in the SAME online CMCG slot (elements i and i + k share slot
// i % k): the dual slot checksums cannot separate them, the syndromes can.
TEST(MultiErrorScheme, OnlineDoubleFaultInOneSlot) {
  auto x = random_vector(kN, InputDistribution::kNormal, 1002);
  const auto want = truth(x);
  const std::size_t k = 32;  // second-layer size for n = 1024

  {
    auto in = x;
    fault::Injector inj;
    inj.schedule(FaultSpec::memory_set(Phase::kInputAfterChecksum, 0, 5,
                                       {7.0, 1.0}));
    inj.schedule(FaultSpec::memory_set(Phase::kInputAfterChecksum, 0, 5 + k,
                                       {-2.0, 6.0}));
    Options opts = Options::online_opt(true);
    opts.max_correctable_errors = 1;
    opts.injector = &inj;
    std::vector<cplx> out(kN);
    Stats stats;
    EXPECT_THROW(abft::online_transform(in.data(), out.data(), kN, opts, stats),
                 UncorrectableError);
  }

  {
    auto in = x;
    fault::Injector inj;
    inj.schedule(FaultSpec::memory_set(Phase::kInputAfterChecksum, 0, 5,
                                       {7.0, 1.0}));
    inj.schedule(FaultSpec::memory_set(Phase::kInputAfterChecksum, 0, 5 + k,
                                       {-2.0, 6.0}));
    Options opts = Options::online_opt(true);
    opts.max_correctable_errors = 2;
    opts.injector = &inj;
    std::vector<cplx> out(kN);
    Stats stats;
    abft::online_transform(in.data(), out.data(), kN, opts, stats);
    EXPECT_LT(max_dev(out, want), 1e-8);
    EXPECT_EQ(stats.multi_errors_corrected, 2u);
  }
}

// Same drill for the in-place k*r*k scheme: slot i of layer 1 reads
// x[s * blk + i], so elements i and i + blk collide in one slot.
TEST(MultiErrorScheme, InplaceDoubleFaultInOneSlot) {
  auto x = random_vector(kN, InputDistribution::kUniform, 1003);
  const auto want = truth(x);
  const auto shape = abft::inplace_shape(kN);
  const std::size_t blk = shape.r * shape.k;

  {
    auto data = x;
    fault::Injector inj;
    inj.schedule(FaultSpec::memory_set(Phase::kInputAfterChecksum, 0, 3,
                                       {4.0, -1.0}));
    inj.schedule(FaultSpec::memory_set(Phase::kInputAfterChecksum, 0, 3 + blk,
                                       {1.0, 8.0}));
    Options opts = Options::online_opt(true);
    opts.max_correctable_errors = 1;
    opts.injector = &inj;
    Stats stats;
    EXPECT_THROW(abft::inplace_online_transform(data.data(), kN, opts, stats),
                 UncorrectableError);
  }

  {
    auto data = x;
    fault::Injector inj;
    inj.schedule(FaultSpec::memory_set(Phase::kInputAfterChecksum, 0, 3,
                                       {4.0, -1.0}));
    inj.schedule(FaultSpec::memory_set(Phase::kInputAfterChecksum, 0, 3 + blk,
                                       {1.0, 8.0}));
    Options opts = Options::online_opt(true);
    opts.max_correctable_errors = 2;
    opts.injector = &inj;
    Stats stats;
    abft::inplace_online_transform(data.data(), kN, opts, stats);
    EXPECT_LT(max_dev(data, want), 1e-8);
    EXPECT_EQ(stats.multi_errors_corrected, 2u);
  }
}

// A t = 2 two-element memory burst in the intermediate, on every two-layer
// path: inside one online column (n = 4096, m = k = 64: elements 57 and 121)
// and across two (n = 65536: 12345 and 12422). Some paths decode the burst,
// others refuse it (their intermediate checksums are single-error); none
// may return a wrong spectrum.
TEST(MultiErrorScheme, IntermediateBurstIsCorrectedOrRefusedNeverSilent) {
  struct Burst {
    std::size_t n, a, b;
  };
  struct Path {
    const char* name;
    bool inplace;
    Options opts;
  };
  Options in_input = Options::online_opt(true);
  in_input.backup_in_input = true;
  const Path paths[] = {
      {"online optimized, scratch backup", false, Options::online_opt(true)},
      {"online optimized, backup in input", false, in_input},
      {"online naive", false, Options::online_naive(true)},
      {"in-place optimized", true, Options::online_opt(true)},
      {"in-place naive", true, Options::online_naive(true)},
  };
  for (const Burst& burst : {Burst{4096, 57, 121}, Burst{65536, 12345, 12422}}) {
    const auto x =
        random_vector(burst.n, InputDistribution::kNormal, 7 + burst.n);
    const auto want = truth(x);
    double peak = 0.0;
    for (const cplx& v : want) peak = std::max(peak, std::abs(v));
    for (const Path& path : paths) {
      SCOPED_TRACE(testing::Message() << path.name << ", n = " << burst.n);
      fault::Injector inj;
      inj.schedule(FaultSpec::memory_set(Phase::kIntermediate, 0, burst.a,
                                         {40.0, 9.0}));
      inj.schedule(FaultSpec::memory_set(Phase::kIntermediate, 0, burst.b,
                                         {-12.0, 5.0}));
      Options opts = path.opts;
      opts.max_correctable_errors = 2;
      opts.injector = &inj;
      auto in = x;
      std::vector<cplx> out(burst.n);
      Stats stats;
      try {
        if (path.inplace) {
          abft::inplace_online_transform(in.data(), burst.n, opts, stats);
          out = in;
        } else {
          abft::online_transform(in.data(), out.data(), burst.n, opts, stats);
        }
      } catch (const UncorrectableError&) {
        continue;  // refused: reported, not silent
      }
      EXPECT_EQ(inj.fired_count(), 2u);
      EXPECT_LE(max_dev(out, want), 1e-9 * peak);
    }
  }
}

// Detection/correction counters must not depend on the SIMD backend (the
// acceptance bar for every new protection feature in this repo).
TEST(MultiErrorScheme, CountersIdenticalAcrossBackends) {
  auto x = random_vector(kN, InputDistribution::kNormal, 1004);
  const auto want = truth(x);
  const std::size_t k = 32;

  Stats first;
  bool have_first = false;
  BackendGuard guard;
  for (Backend b : available_backends()) {
    ASSERT_TRUE(simd::set_backend(b));
    auto in = x;
    fault::Injector inj;
    inj.schedule(FaultSpec::memory_set(Phase::kInputAfterChecksum, 0, 11,
                                       {3.0, 2.0}));
    inj.schedule(FaultSpec::memory_set(Phase::kInputAfterChecksum, 0, 11 + k,
                                       {-1.0, -4.0}));
    Options opts = Options::online_opt(true);
    opts.max_correctable_errors = 2;
    opts.injector = &inj;
    std::vector<cplx> out(kN);
    Stats stats;
    abft::online_transform(in.data(), out.data(), kN, opts, stats);
    EXPECT_LT(max_dev(out, want), 1e-8) << simd::backend_name(b);
    if (!have_first) {
      first = stats;
      have_first = true;
      continue;
    }
    EXPECT_EQ(stats.mem_errors_detected, first.mem_errors_detected)
        << simd::backend_name(b);
    EXPECT_EQ(stats.mem_errors_corrected, first.mem_errors_corrected)
        << simd::backend_name(b);
    EXPECT_EQ(stats.multi_errors_corrected, first.multi_errors_corrected)
        << simd::backend_name(b);
  }
}

// The default budget must stay bit-for-bit: a t = 1 run with no faults is
// byte-identical to the pre-PR-9 dual-checksum path (same plan, same
// arithmetic), so two runs at t = 1 and a run that never heard of the knob
// agree exactly.
TEST(MultiErrorScheme, DefaultBudgetIsBitForBit) {
  auto x = random_vector(kN, InputDistribution::kUniform, 1005);
  Options base = Options::online_opt(true);
  base.max_correctable_errors = 1;
  std::vector<cplx> out1(kN), out2(kN);
  {
    auto in = x;
    Stats stats;
    abft::online_transform(in.data(), out1.data(), kN, base, stats);
  }
  {
    auto in = x;
    Options again = Options::online_opt(true);  // knob untouched (env default)
    Stats stats;
    abft::online_transform(in.data(), out2.data(), kN, again, stats);
  }
  for (std::size_t j = 0; j < kN; ++j) {
    EXPECT_EQ(out1[j].real(), out2[j].real()) << j;
    EXPECT_EQ(out1[j].imag(), out2[j].imag()) << j;
  }
}

// --------------------------------------------------- parallel transpose e2e

TEST(MultiErrorParallel, DoubleCommFaultInOneBlock) {
  const std::size_t p = 4, n = 1024;
  auto x = random_vector(n, InputDistribution::kNormal, 1100);
  const auto want = truth(x);
  const auto arm = [](std::size_t rank, fault::Injector& inj) {
    if (rank == 0) {
      inj.schedule(
          FaultSpec::computational(Phase::kCommBlock, 2, 9, {11.0, 3.0}));
      inj.schedule(
          FaultSpec::computational(Phase::kCommBlock, 2, 40, {-6.0, 5.0}));
    }
  };

  {  // t = 1: the block fails verification beyond repair.
    auto opts = parallel::ParallelOptions::opt_ft_fftw();
    opts.max_correctable_errors = 1;
    parallel::ParallelReport report;
    EXPECT_THROW(parallel::submit_parallel(p, x, opts, arm).get(&report),
                 UncorrectableError);
  }

  {  // t = 2: both elements decoded from the syndrome trailer.
    auto opts = parallel::ParallelOptions::opt_ft_fftw();
    opts.max_correctable_errors = 2;
    parallel::ParallelReport report;
    const auto got = parallel::submit_parallel(p, x, opts, arm).get(&report);
    const double tol = 1e-9 * static_cast<double>(n);
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_NEAR(got[j].real(), want[j].real(), tol) << j;
      ASSERT_NEAR(got[j].imag(), want[j].imag(), tol) << j;
    }
    EXPECT_EQ(report.comm_stats.comm_errors_corrected, 1u);  // one block
    EXPECT_EQ(report.comm_stats.comm_multi_corrected, 2u);   // two elements
  }
}

TEST(MultiErrorParallel, ShardedPathMatches) {
  const std::size_t p = 4, n = 1024;
  auto x = random_vector(n, InputDistribution::kUniform, 1101);
  const auto want = truth(x);
  auto opts = parallel::ParallelOptions::opt_ft_fftw();
  opts.max_correctable_errors = 2;
  parallel::ParallelReport report;
  const auto got =
      parallel::submit_parallel(p, x, opts,
                                [](std::size_t rank, fault::Injector& inj) {
                                  if (rank == 1) {
                                    inj.schedule(FaultSpec::computational(
                                        Phase::kCommBlock, 3, 2, {9.0, -2.0}));
                                    inj.schedule(FaultSpec::computational(
                                        Phase::kCommBlock, 3, 50, {1.0, 7.0}));
                                  }
                                })
          .get(&report);
  const double tol = 1e-9 * static_cast<double>(n);
  for (std::size_t j = 0; j < n; ++j) {
    ASSERT_NEAR(got[j].real(), want[j].real(), tol) << j;
    ASSERT_NEAR(got[j].imag(), want[j].imag(), tol) << j;
  }
  EXPECT_EQ(report.comm_stats.comm_errors_corrected, 1u);
  EXPECT_EQ(report.comm_stats.comm_multi_corrected, 2u);
}

}  // namespace
}  // namespace ftfft
