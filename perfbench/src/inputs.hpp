// Seeded input generator: the only source of data the library sees.
//
// Five families, each present for a reason:
//   uniform, normal   the distributions the paper (section 9.4) and the
//                     library's own tests use; the thresholds are tuned on
//                     them, so they are the "should never alarm" baseline.
//   chirp             unit-modulus linear chirp exp(i*pi*t^2/n): the known
//                     reproducer of clean-run false alarms
//                     ("column memory error not localizable", eta_k = 0).
//   impulse_noise     a 1e6 impulse in 1e-6 noise (1e12 dynamic range):
//                     the reproducer for the memory-FT thresholds,
//                     whose outlier-robust energy discards the impulse.
//   pulse_train       unit pulses every 64 samples: a sparse structured
//                     signal whose sub-FFT columns are mostly exact zeros.
//
// Generation uses std::mt19937_64 (fully specified by the standard) and the
// harness's own transforms of its output, never the library's RNG, so a
// library change cannot change the inputs.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

#include "common/complex.hpp"

namespace perfbench {

using ftfft::cplx;

enum class Family : int { kUniform, kNormal, kChirp, kImpulseNoise, kPulseTrain };
inline constexpr std::size_t kFamilyCount = 5;
inline constexpr std::array<Family, kFamilyCount> kAllFamilies = {
    Family::kUniform, Family::kNormal, Family::kChirp, Family::kImpulseNoise,
    Family::kPulseTrain};

[[nodiscard]] const char* family_name(Family f);

/// Mixes a workload seed with stream identifiers into an independent seed.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a,
                                     std::uint64_t b = 0);

/// Uniform double in [0, 1) from the top 53 bits of one draw
/// (std::uniform_real_distribution is implementation-defined; this is not).
[[nodiscard]] double unit_interval(std::mt19937_64& g);

/// n complex samples of family f; identical (f, n, seed) give identical bits.
[[nodiscard]] std::vector<cplx> make_input(Family f, std::size_t n,
                                           std::uint64_t seed);

/// n real samples of family f (the real parts of make_input's signal).
[[nodiscard]] std::vector<double> make_real_input(Family f, std::size_t n,
                                                  std::uint64_t seed);

}  // namespace perfbench
