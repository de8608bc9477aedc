// The shared protection-unit primitive (abft/unit_check.hpp): the threshold
// step, region repair, the verify-retry loop and the sub-FFT unit built on
// them, plus the counting rules every scheme inherits from it — the same
// reading when retries run out and batch totals that carry every counter.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "abft/inplace.hpp"
#include "abft/offline.hpp"
#include "abft/online.hpp"
#include "abft/real_protection.hpp"
#include "abft/unit_check.hpp"
#include "checksum/dot.hpp"
#include "checksum/multi_error.hpp"
#include "checksum/weights.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "engine/batch_engine.hpp"
#include "fft/fft.hpp"
#include "roundoff/model.hpp"

namespace ftfft {
namespace {

using abft::Options;
using abft::RepairTally;
using abft::Stats;
using fault::FaultSpec;
using fault::Phase;

double max_dev(const std::vector<cplx>& a, const std::vector<cplx>& b) {
  double d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    d = std::max(d, std::abs(a[i] - b[i]));
  }
  return d;
}

TEST(UnitCheck, ThresholdIsTheRoundoffModelsSigmaStep) {
  for (std::size_t n : {4u, 64u, 1000u, 1u << 18}) {
    for (double energy : {0.0, 1e-12, 0.5, 3.0e5}) {
      const double coeff = roundoff::practical_eta_coeff(n);
      const double want = roundoff::eta_from_coeff(
          coeff, std::sqrt(energy / (2.0 * static_cast<double>(n)) + 1e-300));
      EXPECT_EQ(abft::threshold(coeff, energy, n, 0.0), want);
      EXPECT_EQ(abft::threshold(coeff, energy, n, 2.5e-7), 2.5e-7);
    }
  }
}

struct Counters {
  std::size_t detected = 0, corrected = 0, multi = 0, checks = 0;
  RepairTally tally() { return {detected, corrected, multi, &checks}; }
};

TEST(UnitCheck, RepairRegionCorrectsOneStridedError) {
  const std::size_t n = 64, stride = 3;
  auto data = random_vector(n * stride, InputDistribution::kNormal, 11);
  const auto clean = data;
  const auto stored = checksum::dual_weighted_sum(nullptr, data.data(), n,
                                                  stride);
  Counters c;
  EXPECT_FALSE(abft::repair_region({stored}, data.data(), stride, nullptr, n,
                                   1e-9, c.tally(), "clean"));
  EXPECT_EQ(c.checks, 1u);
  EXPECT_EQ(c.detected, 0u);

  data[17 * stride] += cplx{5.0, -2.0};
  EXPECT_TRUE(abft::repair_region({stored}, data.data(), stride, nullptr, n,
                                  1e-9, c.tally(), "one error"));
  EXPECT_LT(max_dev(data, clean), 1e-12);
  EXPECT_EQ(c.checks, 2u);
  EXPECT_EQ(c.detected, 1u);
  EXPECT_EQ(c.corrected, 1u);
  EXPECT_EQ(c.multi, 0u);
}

TEST(UnitCheck, RepairRegionThrowsWhenNotLocalizable) {
  const std::size_t n = 64;
  auto data = random_vector(n, InputDistribution::kUniform, 12);
  const auto stored = checksum::dual_weighted_sum(nullptr, data.data(), n);
  data[3] += cplx{1.0, 0.0};
  data[40] += cplx{0.0, 7.0};
  Counters c;
  EXPECT_THROW(abft::repair_region({stored}, data.data(), 1, nullptr, n, 1e-9,
                                   c.tally(), "two errors"),
               UncorrectableError);
  EXPECT_EQ(c.detected, 1u);
  EXPECT_EQ(c.corrected, 0u);
}

TEST(UnitCheck, FlaggedRegionThatVerifiesCleanThrows) {
  // The caller's cheaper check saw a mismatch the region cannot reproduce:
  // nothing to repair, so the fault is not localizable.
  const std::size_t n = 32;
  auto data = random_vector(n, InputDistribution::kUniform, 13);
  const auto stored = checksum::dual_weighted_sum(nullptr, data.data(), n);
  Counters c;
  EXPECT_THROW(abft::repair_region({stored}, data.data(), 1, nullptr, n, 1e-9,
                                   c.tally(), "flagged", /*flagged=*/true),
               UncorrectableError);
  EXPECT_EQ(c.detected, 1u);
}

TEST(UnitCheck, SyndromeRepairCountsEveryDecodedElement) {
  const std::size_t n = 256;
  auto data = random_vector(n, InputDistribution::kNormal, 14);
  const auto clean = data;
  const auto syn = checksum::syndrome_sum(nullptr, data.data(), n, 1, 4);
  data[9] += cplx{3.0, 1.0};
  data[200] += cplx{-2.0, 4.0};
  Counters c;
  EXPECT_TRUE(abft::repair_region({{}, &syn, 2, nullptr}, data.data(), 1,
                                  nullptr, n, 1e-9, c.tally(), "burst"));
  EXPECT_LT(max_dev(data, clean), 1e-9);
  EXPECT_EQ(c.detected, 1u);
  EXPECT_EQ(c.corrected, 1u);
  EXPECT_EQ(c.multi, 2u);
}

// Region probe at t = 1: two deltas a few elements apart in one unweighted
// dual-checksummed region are outside the t = 1 model, so the repair must
// refuse them or get them right, never report a wrong repair as corrected.
// The dual decoder it replaced was silent on about half of such pairs: it
// accepted a one-element hypothesis once the plain sum balanced, without
// rechecking the index-weighted sum. At t = 2 the moments themselves cannot
// see some close mislocations in long regions (ROADMAP item 1, cause (ii)),
// so this probe stays at t = 1.
TEST(RegionProbe, ClosePairsAtT1AreNeverSilent) {
  for (std::size_t n : {std::size_t{1} << 12, std::size_t{1} << 14,
                        std::size_t{1} << 16}) {
    const auto pristine =
        random_vector(n, InputDistribution::kUniform, 4321 + n);
    const auto de =
        checksum::dual_weighted_sum_energy(nullptr, pristine.data(), n);
    const double eta = roundoff::eta_from_coeff(
        roundoff::practical_eta_memory_coeff(n),
        std::sqrt(de.energy / (2.0 * static_cast<double>(n))));
    Rng rng(1234 + n + 1);
    std::vector<cplx> data;
    int silent = 0, refused = 0, right = 0;
    for (int trial = 0; trial < 1000; ++trial) {
      data = pristine;
      const std::size_t gap = 1 + rng.below(64);
      const std::size_t j = rng.below(n - gap);
      data[j] += cplx{rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)};
      data[j + gap] += cplx{rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)};
      Counters c;
      try {
        abft::repair_region({de.sums}, data.data(), 1, nullptr, n, eta,
                            c.tally(), "close pair");
        ++(max_dev(data, pristine) > 1e-9 ? silent : right);
      } catch (const UncorrectableError&) {
        ++refused;
      }
    }
    EXPECT_EQ(silent, 0) << "n=" << n << " refused=" << refused
                         << " right=" << right;
  }
}

TEST(UnitCheck, VerifyWithRetrySplitsMemoryFromComputationalFaults) {
  // Fails twice: the first failure is a repaired memory fault, the second a
  // computational one; the third attempt passes.
  Stats stats;
  int runs = 0, recovers = 0;
  abft::verify_with_retry(
      stats, &Stats::sub_fft_retries, 4, "unit",
      [&] { return abft::Check{++runs < 3 ? 1.0 : 0.0, 0.5}; },
      [&] { return ++recovers == 1; });
  EXPECT_EQ(runs, 3);
  EXPECT_EQ(stats.verifications, 3u);
  EXPECT_EQ(stats.sub_fft_retries, 2u);
  EXPECT_EQ(stats.comp_errors_detected, 1u);
  EXPECT_EQ(stats.full_restarts, 0u);
}

TEST(UnitCheck, VerifyWithRetryThrowsOnceRetriesAreSpent) {
  Stats stats;
  EXPECT_THROW(abft::verify_with_retry(stats, &Stats::full_restarts, 2, "unit",
                                       [] { return abft::Check{1.0, 0.5}; }),
               UncorrectableError);
  EXPECT_EQ(stats.verifications, 3u);
  EXPECT_EQ(stats.full_restarts, 2u);
  EXPECT_EQ(stats.comp_errors_detected, 2u);
}

// run_sub_fft over a kN-point column against a stored CCG (rA . column,
// the section-4.1 identity omega3 . FFT(x) = rA . x), with no input repair
// until a test adds one.
constexpr std::size_t kN = 64;

abft::SubFft sub_fft(fft::Fft& engine, cplx* in, cplx* out, cplx ccg,
                     double eta) {
  return {engine,  in, 1, out, ccg, nullptr, eta, &Stats::eta_m,
          nullptr, Phase::kMFftOutput, 0, "sub-FFT kept failing"};
}

cplx ccg_of(const cplx* col) {
  return checksum::weighted_sum(
      checksum::input_checksum_vector(kN).data(), col, kN);
}

// The online layout: the slot lives at stride 3 in the caller's array and
// the unit runs from a staged copy. The slot changes after its sums were
// taken and before it was staged, so the first attempt fails; the repair
// restores the slot, refreshes the staged copy and the re-run passes.
// Integer-valued data keeps the all-ones dual sums and the repair exact.
TEST(UnitCheck, SubFftRepairsTheSlotBehindAStagedColumn) {
  fft::Fft engine(kN);
  const std::size_t stride = 3;
  const auto r = random_vector(kN * stride, InputDistribution::kUniform, 21);
  std::vector<cplx> slot(kN * stride);
  for (std::size_t i = 0; i < slot.size(); ++i) {
    slot[i] = {std::round(8.0 * r[i].real()), std::round(8.0 * r[i].imag())};
  }
  const auto pristine = slot;
  const auto stored =
      checksum::dual_weighted_sum(nullptr, slot.data(), kN, stride);
  std::vector<cplx> col(kN), clean_out(kN), out(kN);
  for (std::size_t t = 0; t < kN; ++t) col[t] = slot[t * stride];
  const cplx ccg = ccg_of(col.data());
  Stats clean;
  abft::run_sub_fft(sub_fft(engine, col.data(), clean_out.data(), ccg, 1e-8),
                    4, clean);
  EXPECT_EQ(clean.verifications, 1u);

  slot[17 * stride] += cplx{5.0, -2.0};
  for (std::size_t t = 0; t < kN; ++t) col[t] = slot[t * stride];
  abft::SubFft u = sub_fft(engine, col.data(), out.data(), ccg, 1e-8);
  u.repair = {{stored}, slot.data(), stride, nullptr, 1e-8,
              /*count_check=*/true, /*record_eta=*/true,
              /*before_run=*/false, "input not localizable"};
  Stats stats;
  abft::run_sub_fft(u, 4, stats);
  EXPECT_EQ(std::memcmp(out.data(), clean_out.data(), kN * sizeof(cplx)), 0);
  EXPECT_EQ(std::memcmp(slot.data(), pristine.data(),
                        slot.size() * sizeof(cplx)),
            0);
  EXPECT_EQ(stats.mem_errors_detected, 1u);
  EXPECT_EQ(stats.mem_errors_corrected, 1u);
  EXPECT_EQ(stats.sub_fft_retries, 1u);
  EXPECT_EQ(stats.comp_errors_detected, 0u);
  EXPECT_EQ(stats.verifications, 3u);  // two attempts and the re-check
  EXPECT_EQ(stats.eta_mem, 1e-8);
}

// The same layout with the staged column in the 512-point engine's
// bit-reversed order, as the online and in-place schemes stage on the
// in-place engine: the unit runs execute_bit_reversed, the repair restores
// the slot in natural order and refreshes the staged copy through the
// permutation, and the output is bitwise that of the natural-order
// transform. The second unit takes its CCG as a dot over the staged column
// (ccg_w) and re-checks the slot before running, so that CCG is taken after
// the repair, through the permutation.
TEST(UnitCheck, SubFftRepairsTheSlotBehindABitReversedStagedColumn) {
  constexpr std::size_t n = 512;
  fft::Fft engine(n);
  const std::uint32_t* rev = engine.bit_reversal();
  ASSERT_NE(rev, nullptr);
  const auto ra = checksum::input_checksum_vector(n);
  const std::size_t stride = 3;
  const auto r = random_vector(n * stride, InputDistribution::kUniform, 24);
  std::vector<cplx> pristine(n * stride);
  for (std::size_t i = 0; i < pristine.size(); ++i) {
    pristine[i] = {std::round(8.0 * r[i].real()),
                   std::round(8.0 * r[i].imag())};
  }
  const auto stored =
      checksum::dual_weighted_sum(nullptr, pristine.data(), n, stride);
  std::vector<cplx> natural(n), clean_out(n), staged_clean(n);
  for (std::size_t t = 0; t < n; ++t) natural[t] = pristine[t * stride];
  for (std::size_t p = 0; p < n; ++p) staged_clean[p] = natural[rev[p]];
  const cplx ccg = checksum::weighted_sum(ra.data(), natural.data(), n);
  engine.execute(natural.data(), clean_out.data());

  for (bool retaken : {false, true}) {
    auto slot = pristine;
    slot[17 * stride] += cplx{5.0, -2.0};
    std::vector<cplx> col(n), out(n);
    for (std::size_t p = 0; p < n; ++p) col[p] = slot[rev[p] * stride];
    abft::SubFft u = sub_fft(engine, col.data(), out.data(), ccg, 1e-8);
    u.ccg_w = retaken ? ra.data() : nullptr;
    u.repair = {{stored}, slot.data(), stride, nullptr, 1e-8,
                /*count_check=*/true, /*record_eta=*/true,
                /*before_run=*/retaken, "input not localizable"};
    u.perm = rev;
    Stats stats;
    abft::run_sub_fft(u, 4, stats);
    EXPECT_EQ(std::memcmp(out.data(), clean_out.data(), n * sizeof(cplx)), 0)
        << "retaken=" << retaken;
    EXPECT_EQ(std::memcmp(slot.data(), pristine.data(),
                          slot.size() * sizeof(cplx)),
              0);
    EXPECT_EQ(std::memcmp(col.data(), staged_clean.data(), n * sizeof(cplx)),
              0);
    EXPECT_EQ(stats.mem_errors_detected, 1u);
    EXPECT_EQ(stats.mem_errors_corrected, 1u);
    EXPECT_EQ(stats.comp_errors_detected, 0u);
    // Re-check first: one clean attempt. Else a failed attempt, the
    // repair's re-check and the passing re-run.
    EXPECT_EQ(stats.sub_fft_retries, retaken ? 0u : 1u);
    EXPECT_EQ(stats.verifications, retaken ? 2u : 3u);
  }
}

// At t = 2 the column's 2t-moment syndromes decode a two-element burst in
// the staged column itself (the in-place layout), which the re-run then
// transforms.
TEST(UnitCheck, SubFftDecodesATwoElementBurstThroughItsSyndromes) {
  fft::Fft engine(kN);
  auto col = random_vector(kN, InputDistribution::kNormal, 22);
  const auto pristine = col;
  const auto syn = checksum::syndrome_sum(nullptr, col.data(), kN, 1, 4);
  const cplx ccg = ccg_of(col.data());
  std::vector<cplx> clean_out(kN), out(kN);
  auto clean_in = col;
  Stats clean;
  abft::run_sub_fft(
      sub_fft(engine, clean_in.data(), clean_out.data(), ccg, 1e-9), 4, clean);

  col[9] += cplx{3.0, 1.0};
  col[40] += cplx{-2.0, 4.0};
  abft::SubFft u = sub_fft(engine, col.data(), out.data(), ccg, 1e-9);
  u.repair = {{{}, &syn, 2, nullptr}, col.data(), 1, nullptr, 1e-9,
              /*count_check=*/true, /*record_eta=*/true,
              /*before_run=*/false, "burst not localizable"};
  Stats stats;
  abft::run_sub_fft(u, 4, stats);
  EXPECT_LT(max_dev(col, pristine), 1e-12);
  EXPECT_LT(max_dev(out, clean_out), 1e-11);
  EXPECT_EQ(stats.mem_errors_detected, 1u);
  EXPECT_EQ(stats.mem_errors_corrected, 1u);
  EXPECT_EQ(stats.multi_errors_corrected, 2u);
  EXPECT_EQ(stats.sub_fft_retries, 1u);
  EXPECT_EQ(stats.comp_errors_detected, 0u);
}

// A check no attempt can pass (eta below any round-off) is a persistent
// computational fault: the clean input slot re-checks clean every time, and
// once the r retries are spent the unit throws the caller's text. The
// repair is configured as sharded FFT1 configures it: its re-check is not
// counted as a verification and leaves eta_mem alone.
TEST(UnitCheck, SubFftPersistentComputationalFaultSpendsTheRetries) {
  fft::Fft engine(kN);
  const auto ra = checksum::input_checksum_vector(kN);
  auto col = random_vector(kN, InputDistribution::kNormal, 23);
  const auto pristine = col;
  const auto stored = checksum::dual_weighted_sum(ra.data(), col.data(), kN);
  std::vector<cplx> out(kN);
  abft::SubFft u =
      sub_fft(engine, col.data(), out.data(), stored.plain, 1e-30);
  u.repair = {{stored}, col.data(), 1, ra.data(), 1e-9,
              /*count_check=*/false, /*record_eta=*/false,
              /*before_run=*/false, "input not localizable"};
  Stats stats;
  const int r = 3;
  try {
    abft::run_sub_fft(u, r, stats);
    ADD_FAILURE() << "no throw";
  } catch (const UncorrectableError& e) {
    EXPECT_STREQ(e.what(), "sub-FFT kept failing");
  }
  EXPECT_EQ(stats.sub_fft_retries, std::size_t{r});
  EXPECT_EQ(stats.comp_errors_detected, std::size_t{r});
  EXPECT_EQ(stats.verifications, std::size_t{r} + 1);
  EXPECT_EQ(stats.mem_errors_detected, 0u);
  EXPECT_EQ(stats.eta_mem, 0.0);
  EXPECT_EQ(std::memcmp(col.data(), pristine.data(), kN * sizeof(cplx)), 0);
}

// One counting rule when retries run out: with max_retries = 2 every scheme
// throws after 2 re-executions, reading 2 computational errors, 2 retries or
// restarts and 3 verifications.
TEST(UnitCheck, RetriesExhaustedReadTheSameInEveryScheme) {
  const std::size_t n = 1024;
  Options opts = Options::online_opt(false);
  opts.eta_override = 1e-30;
  opts.max_retries = 2;
  const auto x = random_vector(n, InputDistribution::kUniform, 15);

  {
    auto in = x;
    std::vector<cplx> out(n);
    Stats s;
    EXPECT_THROW(abft::online_transform(in.data(), out.data(), n, opts, s),
                 UncorrectableError);
    EXPECT_EQ(s.comp_errors_detected, 2u);
    EXPECT_EQ(s.sub_fft_retries, 2u);
    EXPECT_EQ(s.verifications, 3u);
  }
  {
    auto data = x;
    Stats s;
    EXPECT_THROW(abft::inplace_online_transform(data.data(), n, opts, s),
                 UncorrectableError);
    EXPECT_EQ(s.comp_errors_detected, 2u);
    EXPECT_EQ(s.sub_fft_retries, 2u);
    EXPECT_EQ(s.verifications, 3u);
  }
  {
    auto in = x;
    std::vector<cplx> out(n);
    Options off = Options::offline_opt(false);
    off.eta_override = opts.eta_override;
    off.max_retries = opts.max_retries;
    Stats s;
    EXPECT_THROW(abft::offline_transform(in.data(), out.data(), n, off, s),
                 UncorrectableError);
    EXPECT_EQ(s.comp_errors_detected, 2u);
    EXPECT_EQ(s.full_restarts, 2u);
    EXPECT_EQ(s.verifications, 3u);
  }
  {
    std::vector<cplx> spec(x.begin(), x.begin() + n / 2 + 1);
    std::vector<double> out(n);
    Stats s;
    EXPECT_THROW(abft::protected_c2r(spec.data(), out.data(), n, opts, s),
                 UncorrectableError);
    EXPECT_EQ(s.comp_errors_detected, 2u);
    EXPECT_EQ(s.full_restarts, 2u);
    EXPECT_EQ(s.verifications, 3u);
  }
}

// ---- Bit-reversed staging at n = 2^18: both schemes split it 512 x 512,
// the in-place engine's smallest size, so every sub-FFT input is staged in
// bit-reversed order. A fault on each path the permutation rides must
// leave the spectrum bitwise that of a clean run. With the same split and
// the same sub-FFTs and twiddles, the online and in-place spectra agree
// bitwise too.

struct StagingConfig {
  const char* name;
  bool inplace;
  bool memory;
  bool backup_in_input;
};

constexpr StagingConfig kStagingConfigs[] = {
    {"online_scratch", false, true, false},
    {"online_in_input", false, true, true},
    {"online_comp", false, false, false},
    {"inplace_memory", true, true, false},
    {"inplace_comp", true, false, false}};

constexpr std::size_t kStagedN = std::size_t{1} << 18;

// Runs `c` over x (which the scheme may repair or overwrite) and returns
// the spectrum.
std::vector<cplx> run_staged(const StagingConfig& c, std::vector<cplx>& x,
                             int t, fault::Injector* inj, Stats& stats) {
  Options o = Options::online_opt(c.memory);
  o.backup_in_input = c.backup_in_input;
  o.max_correctable_errors = t;
  o.injector = inj;
  if (c.inplace) {
    abft::inplace_online_transform(x.data(), x.size(), o, stats);
    return x;
  }
  std::vector<cplx> out(x.size());
  abft::online_transform(x.data(), out.data(), x.size(), o, stats);
  return out;
}

bool same_bits(const std::vector<cplx>& a, const std::vector<cplx>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)) == 0;
}

// A kInputAfterChecksum fault in one layer-1 slot (t = 1) and a two-element
// burst in one slot (t = 2). The repair restores the slot in the caller's
// array and refreshes the bit-reversed staged copy; the reference is the
// clean run over the input that repair restores, which the online scheme
// with a scratch backup leaves in the caller's array.
TEST(UnitCheck, BitReversedStagingRepairsSlotFaultsBitwiseAt2_18) {
  ASSERT_NE(fft::Fft(512).bit_reversal(), nullptr);
  const auto x = random_vector(kStagedN, InputDistribution::kNormal, 31);
  for (int t : {1, 2}) {
    const auto arm = [t](fault::Injector& inj) {
      inj.schedule(FaultSpec::memory_set(Phase::kInputAfterChecksum, 0, 12345,
                                         {30.0, -12.0}));
      if (t == 2) {  // same slot (column 12345 mod 512), nine rows on
        inj.schedule(FaultSpec::memory_set(Phase::kInputAfterChecksum, 0,
                                           12345 + 9 * 512, {-3.0, 7.0}));
      }
    };
    auto repaired = x;
    {
      fault::Injector inj;
      arm(inj);
      Stats s;
      (void)run_staged(kStagingConfigs[0], repaired, t, &inj, s);
    }
    EXPECT_LT(max_dev(repaired, x), 1e-10) << "t=" << t;
    auto clean_in = repaired;
    Stats clean_stats;
    const auto clean =
        run_staged(kStagingConfigs[0], clean_in, t, nullptr, clean_stats);
    EXPECT_EQ(clean_stats.mem_errors_detected, 0u);
    for (const StagingConfig& c : kStagingConfigs) {
      if (!c.memory) continue;
      auto in = x;
      fault::Injector inj;
      arm(inj);
      Stats s;
      const auto got = run_staged(c, in, t, &inj, s);
      EXPECT_TRUE(same_bits(got, clean)) << c.name << " t=" << t;
      EXPECT_EQ(s.mem_errors_corrected, 1u) << c.name << " t=" << t;
      EXPECT_EQ(s.multi_errors_corrected, t == 2 ? 2u : 0u) << c.name;
      EXPECT_EQ(s.comp_errors_detected, 0u) << c.name;
    }
  }
}

// A kTwiddleDmrCopy fault in online layer 2 / in-place TM1, whose no-fault
// path stores the next sub-FFT's input bit-reversed: the hooked copy is
// voted in natural order and permuted afterwards, with memory FT on and
// off.
TEST(UnitCheck, BitReversedStagingVotesOutATwiddleFaultBitwiseAt2_18) {
  const auto x = random_vector(kStagedN, InputDistribution::kUniform, 32);
  for (const StagingConfig& c : kStagingConfigs) {
    auto clean_in = x;
    Stats clean_stats;
    const auto clean = run_staged(c, clean_in, 1, nullptr, clean_stats);
    EXPECT_EQ(clean_stats.dmr_mismatches, 0u);
    auto in = x;
    fault::Injector inj;
    inj.schedule(
        FaultSpec::computational(Phase::kTwiddleDmrCopy, 3, 9, {1.5, -2.0}));
    Stats s;
    const auto got = run_staged(c, in, 1, &inj, s);
    EXPECT_EQ(inj.fired_count(), 1u) << c.name;
    EXPECT_EQ(s.dmr_mismatches, 1u) << c.name;
    EXPECT_EQ(s.comp_errors_detected, 0u) << c.name;
    EXPECT_TRUE(same_bits(got, clean)) << c.name;
  }
}

// n = 2^19 splits k * r * k = 512 * 2 * 512 in place: the DMR middle layer
// writes the layer-3 inputs bit-reversed into their own block. A fault in
// either DMR copy is voted out bitwise, and the clean spectrum is the
// transform.
TEST(UnitCheck, BitReversedMiddleLayerVotesOutFaultsBitwiseAt2_19) {
  const std::size_t n = std::size_t{1} << 19;
  ASSERT_EQ(abft::inplace_shape(n).r, 2u);
  const auto x = random_vector(n, InputDistribution::kNormal, 33);
  for (bool memory : {false, true}) {
    const Options o = Options::online_opt(memory);
    auto clean = x;
    Stats clean_stats;
    abft::inplace_online_transform(clean.data(), n, o, clean_stats);
    const auto want = fft::fft(x);
    double peak = 0.0;
    for (const cplx& v : want) peak = std::max(peak, std::abs(v));
    EXPECT_LT(max_dev(clean, want), 1e-9 * peak);
    for (Phase phase : {Phase::kTwiddleDmrCopy, Phase::kMiddleDmrCopy}) {
      fault::Injector inj;
      inj.schedule(FaultSpec::computational(phase, 5, 1, {2.0, 1.0}));
      Options fo = o;
      fo.injector = &inj;
      auto got = x;
      Stats s;
      abft::inplace_online_transform(got.data(), n, fo, s);
      EXPECT_EQ(inj.fired_count(), 1u);
      EXPECT_EQ(s.dmr_mismatches, 1u) << "memory=" << memory;
      EXPECT_TRUE(same_bits(got, clean)) << "memory=" << memory;
    }
  }
}

TEST(UnitCheck, StatsMergeAddsCountersAndKeepsWidestThresholds) {
  Stats a, b;
  a.comp_errors_detected = 1;
  a.multi_errors_corrected = 2;
  a.eta_m = 3.0;
  a.eta_real = 1.0;
  b.mem_errors_detected = 4;
  b.mem_errors_corrected = 4;
  b.multi_errors_corrected = 3;
  b.sub_fft_retries = 5;
  b.full_restarts = 6;
  b.dmr_mismatches = 7;
  b.verifications = 8;
  b.eta_m = 2.0;
  b.eta_k = 9.0;
  b.eta_mem = 10.0;
  b.eta_real = 11.0;
  a += b;
  EXPECT_EQ(a.comp_errors_detected, 1u);
  EXPECT_EQ(a.mem_errors_detected, 4u);
  EXPECT_EQ(a.mem_errors_corrected, 4u);
  EXPECT_EQ(a.multi_errors_corrected, 5u);
  EXPECT_EQ(a.sub_fft_retries, 5u);
  EXPECT_EQ(a.full_restarts, 6u);
  EXPECT_EQ(a.dmr_mismatches, 7u);
  EXPECT_EQ(a.verifications, 8u);
  EXPECT_EQ(a.eta_m, 3.0);
  EXPECT_EQ(a.eta_k, 9.0);
  EXPECT_EQ(a.eta_mem, 10.0);
  EXPECT_EQ(a.eta_real, 11.0);
}

// Batch totals carry the multi-error count: two faults in one first-layer
// slot of lane 0 (the MultiErrorScheme.OnlineDoubleFaultInOneSlot drill)
// decode at t = 2 and must show up in BatchReport::totals, not only in
// per_lane.
TEST(UnitCheck, BatchTotalsCarryMultiErrorCorrections) {
  const std::size_t n = 1024, k = 32, lanes = 2;
  std::vector<cplx> in(lanes * n), out(lanes * n);
  for (std::size_t l = 0; l < lanes; ++l) {
    const auto x = random_vector(n, InputDistribution::kNormal, 1002 + l);
    std::copy(x.begin(), x.end(), in.begin() + l * n);
  }
  std::vector<fault::Injector> injs(lanes);
  injs[0].schedule(
      FaultSpec::memory_set(Phase::kInputAfterChecksum, 0, 5, {7.0, 1.0}));
  injs[0].schedule(
      FaultSpec::memory_set(Phase::kInputAfterChecksum, 0, 5 + k, {-2.0, 6.0}));
  std::vector<engine::Lane> ls(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    ls[l].in = in.data() + l * n;
    ls[l].out = out.data() + l * n;
    ls[l].injector = &injs[l];
  }
  engine::BatchOptions bo;
  bo.abft = Options::online_opt(true);
  bo.abft.max_correctable_errors = 2;
  engine::BatchEngine eng(2);
  const auto rep = eng.submit_batch(ls, n, bo).get();
  ASSERT_TRUE(rep.all_ok());
  EXPECT_EQ(rep.per_lane[0].multi_errors_corrected, 2u);
  EXPECT_EQ(rep.totals.multi_errors_corrected, 2u);
  Stats sum;
  for (const auto& s : rep.per_lane) sum += s;
  EXPECT_EQ(std::memcmp(&sum, &rep.totals, sizeof(Stats)), 0);
}

}  // namespace
}  // namespace ftfft
