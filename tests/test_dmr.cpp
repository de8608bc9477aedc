// DMR twiddle multiplication: correctness, the majority vote, the exponent
// offset, the two-table factorization and its cross-backend bit identity.
#include "abft/dmr.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "common/seal.hpp"
#include "fault/bitflip.hpp"
#include "fault/injector.hpp"
#include "fft/bit_reversal.hpp"
#include "simd/dispatch.hpp"
#include "simd/kernels.hpp"

namespace ftfft {
namespace {

using abft::TwiddleTables;
using fault::FaultSpec;
using fault::Injector;
using fault::Phase;

bool same_bits(const std::vector<cplx>& a, const std::vector<cplx>& b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].real() != b[i].real() || a[i].imag() != b[i].imag() ||
        std::signbit(a[i].real()) != std::signbit(b[i].real()) ||
        std::signbit(a[i].imag()) != std::signbit(b[i].imag())) {
      return false;
    }
  }
  return a.size() == b.size();
}

// Every compiled-in kernel table the CPU can run, scalar first.
std::vector<const simd::FftKernels*> runnable_tables() {
  std::vector<const simd::FftKernels*> out{simd::scalar_fft_kernels()};
  if (simd::backend_available(simd::Backend::kAvx2)) {
    out.push_back(simd::avx2_fft_kernels());
  }
  if (simd::backend_available(simd::Backend::kNeon)) {
    out.push_back(simd::neon_fft_kernels());
  }
  return out;
}

TEST(DmrTwiddle, MatchesDirectComputation) {
  const std::size_t len = 257, n = 4096, step = 5;
  auto x = random_vector(len, InputDistribution::kUniform, 1);
  std::vector<cplx> out(len);
  const std::size_t fixed =
      abft::dmr_twiddle_multiply(x.data(), 1, out.data(), len, n, step, 0,
                                 nullptr);
  EXPECT_EQ(fixed, 0u);
  for (std::size_t i = 0; i < len; ++i) {
    const cplx want = x[i] * omega(n, i * step);
    EXPECT_NEAR(std::abs(out[i] - want), 0.0, 1e-12) << i;
  }
}

TEST(DmrTwiddle, StridedSource) {
  const std::size_t len = 64, stride = 3, n = 1024, step = 7;
  auto flat = random_vector(len * stride, InputDistribution::kNormal, 2);
  std::vector<cplx> out(len);
  abft::dmr_twiddle_multiply(flat.data(), stride, out.data(), len, n, step, 0,
                             nullptr);
  for (std::size_t i = 0; i < len; ++i) {
    const cplx want = flat[i * stride] * omega(n, i * step);
    EXPECT_NEAR(std::abs(out[i] - want), 0.0, 1e-12) << i;
  }
}

// The exponent offset j0 applies the constant prefactor omega_n^j0 that
// the six-step paths need (their twiddle is omega_N^(r*(q*bsz + u))).
TEST(DmrTwiddle, ScalePrefactorApplied) {
  const std::size_t len = 100, n = 2048, step = 3, j0 = 555;
  auto x = random_vector(len, InputDistribution::kUniform, 3);
  std::vector<cplx> out(len);
  abft::dmr_twiddle_multiply(x.data(), 1, out.data(), len, n, step, 0,
                             nullptr, j0);
  for (std::size_t i = 0; i < len; ++i) {
    const cplx want = cmul(x[i], cmul(omega(n, j0), omega(n, i * step)));
    EXPECT_NEAR(std::abs(out[i] - want), 0.0, 1e-12) << i;
  }
  // Offsetting by j0 is the same as starting the exponent run at j0.
  const auto tables = TwiddleTables::get(n);
  std::vector<cplx> ref(len);
  for (std::size_t i = 0; i < len; ++i) {
    ref[i] = cmul(x[i], tables->twiddle(j0 + i * step, 0));
  }
  EXPECT_TRUE(same_bits(out, ref));
}

TEST(DmrTwiddle, RejectsExponentPastN) {
  const std::size_t n = 256;
  std::vector<cplx> x(64, cplx{1.0, 0.0}), out(64);
  // (len-1)*step = 63*4 = 252 < 256: fine; one more offset unit is not.
  EXPECT_NO_THROW(abft::dmr_twiddle_multiply(x.data(), 1, out.data(), 64, n,
                                             4, 0, nullptr, 3));
  EXPECT_THROW(abft::dmr_twiddle_multiply(x.data(), 1, out.data(), 64, n, 4,
                                          0, nullptr, 4),
               std::invalid_argument);
}

TEST(DmrTwiddle, VotesOutInjectedFault) {
  const std::size_t len = 128, n = 1024, step = 7, unit = 4;
  auto x = random_vector(len, InputDistribution::kUniform, 4);
  Injector inj;
  inj.schedule(FaultSpec::computational(Phase::kTwiddleDmrCopy, unit, 31,
                                        {9.0, -9.0}));
  std::vector<cplx> out(len);
  const std::size_t fixed = abft::dmr_twiddle_multiply(
      x.data(), 1, out.data(), len, n, step, unit, &inj);
  EXPECT_EQ(fixed, 1u);
  EXPECT_EQ(inj.fired_count(), 1u);
  // Copy 2 and the table-free third evaluation agree bitwise with a clean
  // copy 1, so the vote restores the exact fault-free value.
  std::vector<cplx> clean(len);
  abft::dmr_twiddle_multiply(x.data(), 1, clean.data(), len, n, step, unit,
                             nullptr);
  EXPECT_TRUE(same_bits(out, clean));
}

TEST(DmrTwiddle, WrongUnitDoesNotFire) {
  const std::size_t len = 32, n = 256, step = 1;
  auto x = random_vector(len, InputDistribution::kUniform, 5);
  Injector inj;
  inj.schedule(
      FaultSpec::computational(Phase::kTwiddleDmrCopy, 7, 3, {1.0, 1.0}));
  std::vector<cplx> out(len);
  const std::size_t fixed = abft::dmr_twiddle_multiply(
      x.data(), 1, out.data(), len, n, step, /*unit=*/2, &inj);
  EXPECT_EQ(fixed, 0u);
  EXPECT_EQ(inj.pending_count(), 1u);
}

TEST(DmrTwiddle, LongRunStaysAccurate) {
  // Every element reads its own table entries, so a long run cannot drift
  // from the directly evaluated twiddle.
  const std::size_t len = 8192, n = 1 << 20, step = 127;
  auto x = random_vector(len, InputDistribution::kUniform, 6);
  std::vector<cplx> out(len);
  abft::dmr_twiddle_multiply(x.data(), 1, out.data(), len, n, step, 0,
                             nullptr);
  double worst = 0.0;
  for (std::size_t i = 0; i < len; ++i) {
    const cplx want =
        cmul(x[i], omega(n, static_cast<std::uint64_t>(i) * step));
    worst = std::max(worst, std::abs(out[i] - want));
  }
  EXPECT_LT(worst, 1e-13);
}

// Every table twiddle over the whole exponent range of a 2^20 transform is
// within 1e-15 of the directly evaluated root of unity.
TEST(DmrTwiddle, TableGridAccurateAt2To20) {
  const std::size_t n = std::size_t{1} << 20;
  const TwiddleTables tables(n);
  double worst = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    worst = std::max(worst, std::abs(tables.twiddle(j, 0) - omega(n, j)));
  }
  EXPECT_LT(worst, 1e-15);
}

// The two pairs hold the same values in disjoint storage, and the
// table-free third evaluation reproduces a clean lookup bitwise.
TEST(DmrTwiddle, TablePairsDisjointAndExactThirdEvaluation) {
  for (std::size_t n : {std::size_t{1}, std::size_t{6}, std::size_t{1000},
                        std::size_t{5} << 12, std::size_t{1} << 17}) {
    const TwiddleTables tables(n);
    StateSpans spans;
    tables.collect_state(spans);
    ASSERT_EQ(spans.spans.size(), 4u) << n;
    for (std::size_t a = 0; a < 4; ++a) {
      for (std::size_t b = a + 1; b < 4; ++b) {
        const auto* pa = static_cast<const char*>(spans.spans[a].data);
        const auto* pb = static_cast<const char*>(spans.spans[b].data);
        EXPECT_TRUE(pa + spans.spans[a].bytes <= pb ||
                    pb + spans.spans[b].bytes <= pa)
            << n << " spans " << a << "," << b;
      }
    }
    for (std::size_t j = 0; j < n; j += 1 + n / 4096) {
      const cplx a = tables.twiddle(j, 0);
      const cplx b = tables.twiddle(j, 1);
      const cplx c = tables.exact_twiddle(j);
      ASSERT_TRUE(a == b && a == c) << n << " j=" << j;
    }
  }
}

// Scalar reference against every runnable vector table: the twiddled
// outputs (plain single pass and DMR) are bitwise identical, on contiguous
// runs and on strided m x k column walks.
TEST(DmrTwiddle, BackendsBitwiseIdentical) {
  const auto tables_list = runnable_tables();
  for (std::size_t n : {std::size_t{1} << 10, std::size_t{1} << 16,
                        std::size_t{1} << 18, std::size_t{1} << 20,
                        std::size_t{5} << 12}) {
    const auto tw = TwiddleTables::get(n);
    const auto view = tw->view();
    const auto [m, k] = balanced_split(n);
    const auto x = random_vector(n, InputDistribution::kNormal, 40 + n % 97);
    struct Run {
      std::size_t stride, len, step, j0;
      const cplx* src;
    };
    const std::size_t wide = (n - 1) / 1022;  // 1023 exponents up to n-1
    std::vector<Run> runs{{1, 1023, wide, n - 1 - 1022 * wide, x.data()},
                          {1, k, 1, 0, x.data()}};
    for (std::size_t c : {std::size_t{1}, m / 2 + 1, m - 1}) {
      runs.push_back({m, k, c, 0, x.data() + c});  // online layer-2 column
    }
    for (const Run& run : runs) {
      std::vector<cplx> ref(run.len), got(run.len);
      const auto* s = tables_list.front();
      s->dmr_twiddle(run.src, run.stride, ref.data(), run.len, run.j0,
                     run.step, view, true, nullptr, nullptr, nullptr,
                     nullptr, nullptr);
      for (const auto* kt : tables_list) {
        for (bool redundant : {false, true}) {
          std::vector<cplx> src(run.src,
                                run.src + (run.len - 1) * run.stride + 1);
          std::fill(got.begin(), got.end(), cplx{0, 0});
          const std::size_t mism = kt->dmr_twiddle(
              src.data(), run.stride, got.data(), run.len, run.j0, run.step,
              view, redundant, nullptr, nullptr, nullptr, nullptr, nullptr);
          EXPECT_EQ(mism, 0u);
          EXPECT_TRUE(same_bits(got, ref))
              << "n=" << n << " stride=" << run.stride << " step=" << run.step
              << " redundant=" << redundant;
        }
      }
    }
  }
}

// Bit-reversal of the low `bits` bits of every index below 2^bits.
std::vector<std::uint32_t> bit_reversal(unsigned bits) {
  std::vector<std::uint32_t> rev(std::size_t{1} << bits);
  for (std::size_t i = 0; i < rev.size(); ++i) {
    rev[i] = static_cast<std::uint32_t>(fft::reverse_bits(i, bits));
  }
  return rev;
}

// out[i] = in[perm[i]].
std::vector<cplx> gathered(const std::vector<cplx>& in,
                           const std::vector<std::uint32_t>& perm) {
  std::vector<cplx> out(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) out[i] = in[perm[i]];
  return out;
}

// The fused CCG: on each backend the weighted sum and energy returned by
// the twiddle pass equal that backend's weighted_sum_energy sweep over the
// output bitwise, with and without a hook (two-pass vs in-register DMR),
// including an odd-length tail. A bit-reversed store (even lengths) leaves
// the sums those of the natural order and puts the same elements at the
// reversed positions.
TEST(DmrTwiddle, FusedChecksumMatchesWeightedSumEnergy) {
  const std::size_t n = 1 << 16;
  const auto tw = TwiddleTables::get(n);
  const auto view = tw->view();
  std::vector<const simd::ChecksumKernels*> cks{
      simd::scalar_checksum_kernels()};
  if (simd::backend_available(simd::Backend::kAvx2)) {
    cks.push_back(simd::avx2_checksum_kernels());
  }
  if (simd::backend_available(simd::Backend::kNeon)) {
    cks.push_back(simd::neon_checksum_kernels());
  }
  const auto fts = runnable_tables();
  ASSERT_EQ(fts.size(), cks.size());
  const auto no_op = [](void*, cplx*, std::size_t) {};
  const auto rev = bit_reversal(8);
  for (std::size_t len : {std::size_t{256}, std::size_t{255}, std::size_t{7}}) {
    const auto x = random_vector(len, InputDistribution::kUniform, 50 + len);
    const auto w = random_vector(len, InputDistribution::kNormal, 60 + len);
    for (std::size_t b = 0; b < fts.size(); ++b) {
      for (bool hooked : {false, true}) {
        std::vector<cplx> out(len);
        checksum::SumEnergy se;
        fts[b]->dmr_twiddle(x.data(), 1, out.data(), len, 3, 17, view, true,
                            hooked ? +no_op : nullptr, nullptr, w.data(), &se,
                            nullptr);
        const auto want = cks[b]->weighted_sum_energy(w.data(), out.data(),
                                                      len);
        EXPECT_EQ(se.sum.real(), want.sum.real()) << b << " len=" << len;
        EXPECT_EQ(se.sum.imag(), want.sum.imag()) << b << " len=" << len;
        EXPECT_EQ(se.energy, want.energy) << b << " len=" << len;
        if (len != rev.size()) continue;
        std::vector<cplx> pout(len);
        checksum::SumEnergy pse;
        fts[b]->dmr_twiddle(x.data(), 1, pout.data(), len, 3, 17, view, true,
                            hooked ? +no_op : nullptr, nullptr, w.data(), &pse,
                            rev.data());
        EXPECT_TRUE(same_bits(pout, gathered(out, rev)))
            << b << " hooked=" << hooked;
        EXPECT_EQ(pse.sum.real(), want.sum.real()) << b;
        EXPECT_EQ(pse.sum.imag(), want.sum.imag()) << b;
        EXPECT_EQ(pse.energy, want.energy) << b;
      }
    }
  }
}

// Table-corruption drill: flip a bit in one entry of one table copy. The
// vote must restore the clean output bitwise, and the mismatch count must
// equal the number of elements whose exponent reads that entry — on every
// backend, in-register and two-pass alike, stored in natural or in
// bit-reversed order.
TEST(DmrTwiddle, TableCorruptionDrillRepairsBitwise) {
  const std::size_t n = 1 << 16, len = 4096, step = 13, j0 = 7;
  const auto x = random_vector(len, InputDistribution::kUniform, 8);
  const unsigned shift = TwiddleTables(n).shift();
  const std::size_t mask = (std::size_t{1} << shift) - 1;
  const std::size_t probe = j0 + 100 * step;  // an exponent the run reads
  const auto no_op = [](void*, cplx*, std::size_t) {};

  std::vector<cplx> clean(len);
  abft::dmr_twiddle_multiply(TwiddleTables(n), x.data(), 1, clean.data(), len,
                             step, j0, 0, nullptr);
  const auto rev = bit_reversal(12);  // len = 2^12
  const auto clean_rev = gathered(clean, rev);
  for (std::size_t span = 0; span < 4; ++span) {  // hi0, lo0, hi1, lo1
    const bool hi = span % 2 == 0;
    const std::size_t entry = hi ? probe >> shift : probe & mask;
    std::size_t readers = 0;
    for (std::size_t i = 0; i < len; ++i) {
      const std::size_t j = j0 + i * step;
      readers += (hi ? j >> shift : j & mask) == entry ? 1 : 0;
    }
    ASSERT_GT(readers, 0u);

    const TwiddleTables tables(n);
    StateSpans spans;
    tables.collect_state(spans);
    // Models an upset in long-lived table memory.
    cplx* e =
        static_cast<cplx*>(const_cast<void*>(spans.spans[span].data)) + entry;
    const double re = e->real(), im = e->imag();
    *e = std::abs(re) >= std::abs(im) ? cplx{fault::flip_bit(re, 51), im}
                                      : cplx{re, fault::flip_bit(im, 51)};

    for (const auto* kt : runnable_tables()) {
      for (bool hooked : {false, true}) {
        for (bool permuted : {false, true}) {
          std::vector<cplx> out(len);
          const std::size_t mism = kt->dmr_twiddle(
              x.data(), 1, out.data(), len, j0, step, tables.view(), true,
              hooked ? +no_op : nullptr, nullptr, nullptr, nullptr,
              permuted ? rev.data() : nullptr);
          EXPECT_EQ(mism, readers) << "span " << span << " hooked=" << hooked
                                   << " permuted=" << permuted;
          EXPECT_TRUE(same_bits(out, permuted ? clean_rev : clean))
              << "span " << span << " hooked=" << hooked
              << " permuted=" << permuted;
        }
      }
    }
    // And through the public entry point on the active backend.
    std::vector<cplx> out(len);
    EXPECT_EQ(abft::dmr_twiddle_multiply(tables, x.data(), 1, out.data(), len,
                                         step, j0, 0, nullptr),
              readers);
    EXPECT_TRUE(same_bits(out, clean)) << "span " << span;
  }
}

}  // namespace
}  // namespace ftfft
