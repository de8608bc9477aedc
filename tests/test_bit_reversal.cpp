// Property tests for the COBRA cache-blocked bit-reversal
// (src/fft/bit_reversal.hpp): the tiled permutation must equal the naive
// rev(i) mapping for every size and every leading/trailing field split —
// including the degenerate b == 0 walk, clamped splits where 2b > log2n, and
// odd log2n where the middle field has odd width — must be an involution,
// and the fused-opener write-back must be bit-identical to permute-then-open
// on every SIMD backend.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/complex.hpp"
#include "common/rng.hpp"
#include "fft/bit_reversal.hpp"
#include "fft/inplace_radix2.hpp"
#include "simd/dispatch.hpp"

namespace ftfft {
namespace {

using fft::CobraBitReversal;
using fft::reverse_bits;
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

/// Vector whose element i encodes i, so a permutation is fully observable.
std::vector<cplx> iota_vector(std::size_t n) {
  std::vector<cplx> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = {static_cast<double>(i), -static_cast<double>(i)};
  }
  return v;
}

TEST(ReverseBits, MatchesBitByBitDefinition) {
  EXPECT_EQ(reverse_bits(0, 0), 0u);
  EXPECT_EQ(reverse_bits(1, 1), 1u);
  EXPECT_EQ(reverse_bits(1, 4), 8u);
  EXPECT_EQ(reverse_bits(0b1011, 4), 0b1101u);
  for (unsigned bits = 0; bits <= 20; ++bits) {
    const std::size_t n = std::size_t{1} << bits;
    for (std::size_t x : {std::size_t{0}, std::size_t{1}, n / 3, n - 1}) {
      if (x >= n) continue;
      std::size_t want = 0;
      for (unsigned i = 0; i < bits; ++i) {
        if (x & (std::size_t{1} << i)) want |= std::size_t{1} << (bits - 1 - i);
      }
      EXPECT_EQ(reverse_bits(x, bits), want) << "x=" << x << " bits=" << bits;
      // rev is an involution on `bits`-wide integers.
      EXPECT_EQ(reverse_bits(reverse_bits(x, bits), bits), x);
    }
  }
}

TEST(CobraBitReversal, MatchesNaiveMappingForEverySplitUpTo4k) {
  // Full tile-width sweep at small sizes: every b from the pair-swap
  // degenerate (b == 0) through clamped requests far beyond log2n/2. Odd
  // log2n gives the middle field odd width; 2b < log2n leaves a non-empty
  // middle even at the largest allowed b ("non-square" splits).
  for (unsigned log2n = 0; log2n <= 12; ++log2n) {
    const std::size_t n = std::size_t{1} << log2n;
    const auto x = iota_vector(n);
    for (unsigned b = 0; b <= log2n / 2 + 2; ++b) {
      const CobraBitReversal cobra(log2n, b);
      EXPECT_LE(cobra.tile_bits(), log2n / 2);
      auto y = x;
      cobra.permute(y.data());
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(y[i], x[reverse_bits(i, log2n)])
            << "log2n=" << log2n << " b=" << b << " i=" << i;
      }
    }
  }
}

TEST(CobraBitReversal, MatchesNaiveMappingAtLargeSizes) {
  // Spot checks at bench-relevant sizes, including both parities of log2n
  // and the full 2^20 acceptance size.
  struct Case {
    unsigned log2n;
    unsigned b;
  };
  for (const Case c : {Case{14, 5}, Case{15, 6}, Case{17, 4}, Case{19, 6},
                       Case{20, 5}, Case{20, 6}}) {
    const std::size_t n = std::size_t{1} << c.log2n;
    const auto x = iota_vector(n);
    auto y = x;
    const CobraBitReversal cobra(c.log2n, c.b);
    cobra.permute(y.data());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(y[i], x[reverse_bits(i, c.log2n)])
          << "log2n=" << c.log2n << " b=" << c.b << " i=" << i;
    }
  }
}

TEST(CobraBitReversal, IsSelfInverse) {
  for (unsigned log2n : {0u, 1u, 5u, 8u, 11u, 13u, 16u}) {
    const std::size_t n = std::size_t{1} << log2n;
    const auto x = random_vector(n, InputDistribution::kNormal, 4242);
    for (unsigned b : {0u, 2u, 3u, 6u}) {
      auto y = x;
      const CobraBitReversal cobra(log2n, b);
      cobra.permute(y.data());
      cobra.permute(y.data());
      ASSERT_EQ(std::memcmp(y.data(), x.data(), n * sizeof(cplx)), 0)
          << "log2n=" << log2n << " b=" << b;
    }
  }
}

TEST(CobraBitReversal, FusedOpenerBitIdenticalToPermuteThenOpenOnAllBackends) {
  BackendGuard guard;
  for (unsigned log2n : {4u, 5u, 9u, 12u, 13u}) {
    const std::size_t n = std::size_t{1} << log2n;
    const auto x = random_vector(n, InputDistribution::kUniform, 777);
    const auto opener = (log2n & 1u)
                            ? CobraBitReversal::Opener::kRadix2Pairs
                            : CobraBitReversal::Opener::kRadix4First;
    const CobraBitReversal cobra(log2n, 4);
    for (Backend bk : available_backends()) {
      ASSERT_TRUE(simd::set_backend(bk));
      for (bool inverse : {false, true}) {
        auto want = x;
        cobra.permute(want.data());
        const auto& k = simd::fft_kernels();
        if (opener == CobraBitReversal::Opener::kRadix2Pairs) {
          k.radix2_stage0(want.data(), n);
        } else {
          k.radix4_first_stage(want.data(), n, inverse);
        }
        auto got = x;
        cobra.run(got.data(), opener, inverse);
        ASSERT_EQ(std::memcmp(got.data(), want.data(), n * sizeof(cplx)), 0)
            << "log2n=" << log2n << " backend=" << simd::backend_name(bk)
            << " inverse=" << inverse;
      }
    }
  }
}

TEST(CobraBitReversal, PlanSelectsCobraBySizeThreshold) {
  fft::InplaceTuning tuning;
  tuning.cobra_min_log2 = 10;
  tuning.cobra_tile_bits = 4;
  const fft::InplaceRadix2Plan small(1 << 9, tuning);
  EXPECT_FALSE(small.cobra_enabled());
  const fft::InplaceRadix2Plan big(1 << 10, tuning);
  EXPECT_TRUE(big.cobra_enabled());
  EXPECT_EQ(big.cobra_tile_bits(), 4u);
  // The same size below its threshold walks the pair-swap list instead; the
  // permutation choice must not change a bit of either direction.
  tuning.cobra_min_log2 = 11;
  const fft::InplaceRadix2Plan pairswap(1 << 10, tuning);
  EXPECT_FALSE(pairswap.cobra_enabled());
  const auto x = random_vector(1 << 10, InputDistribution::kUniform, 1010);
  for (bool inverse : {false, true}) {
    auto a = x;
    auto b = x;
    if (inverse) {
      pairswap.inverse(a.data());
      big.inverse(b.data());
    } else {
      pairswap.forward(a.data());
      big.forward(b.data());
    }
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)), 0)
        << "inverse=" << inverse;
  }
}

}  // namespace
}  // namespace ftfft
