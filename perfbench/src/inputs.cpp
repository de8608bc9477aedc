#include "inputs.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace perfbench {

double unit_interval(std::mt19937_64& g) {
  return static_cast<double>(g() >> 11) * 0x1.0p-53;
}

namespace {

double normal(std::mt19937_64& g) {
  const double u1 = 1.0 - unit_interval(g);  // (0, 1]: log is finite
  const double u2 = unit_interval(g);
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

}  // namespace

const char* family_name(Family f) {
  switch (f) {
    case Family::kUniform: return "uniform";
    case Family::kNormal: return "normal";
    case Family::kChirp: return "chirp";
    case Family::kImpulseNoise: return "impulse_noise";
    case Family::kPulseTrain: return "pulse_train";
  }
  return "?";
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  // splitmix64 finalizer over a simple combination.
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (a + 1) +
                    0xBF58476D1CE4E5B9ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::vector<cplx> make_input(Family f, std::size_t n, std::uint64_t seed) {
  if (n == 0) throw std::invalid_argument("make_input: n must be > 0");
  std::mt19937_64 g(seed);
  std::vector<cplx> x(n);
  switch (f) {
    case Family::kUniform:
      for (auto& v : x) {
        const double re = 2.0 * unit_interval(g) - 1.0;
        v = {re, 2.0 * unit_interval(g) - 1.0};
      }
      break;
    case Family::kNormal:
      for (auto& v : x) {
        const double re = normal(g);
        v = {re, normal(g)};
      }
      break;
    case Family::kChirp: {
      // exp(i*(phi0 + pi*t^2/n)); t^2 mod 2n keeps the phase argument exact.
      const double phi0 = 2.0 * std::numbers::pi * unit_interval(g);
      const std::uint64_t period = 2 * static_cast<std::uint64_t>(n);
      for (std::size_t t = 0; t < n; ++t) {
        const std::uint64_t tt = (static_cast<std::uint64_t>(t) * t) % period;
        const double ph = phi0 + std::numbers::pi * static_cast<double>(tt) /
                                     static_cast<double>(n);
        x[t] = {std::cos(ph), std::sin(ph)};
      }
      break;
    }
    case Family::kImpulseNoise: {
      for (auto& v : x) {
        const double re = 1e-6 * (2.0 * unit_interval(g) - 1.0);
        v = {re, 1e-6 * (2.0 * unit_interval(g) - 1.0)};
      }
      x[g() % n] += cplx{1e6, 0.0};
      break;
    }
    case Family::kPulseTrain: {
      const std::size_t offset = g() % 64;
      const cplx pulse = std::polar(1.0, 2.0 * std::numbers::pi * unit_interval(g));
      for (std::size_t t = offset; t < n; t += 64) x[t] = pulse;
      break;
    }
  }
  return x;
}

std::vector<double> make_real_input(Family f, std::size_t n,
                                    std::uint64_t seed) {
  const std::vector<cplx> z = make_input(f, n, seed);
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = z[i].real();
  return x;
}

}  // namespace perfbench
