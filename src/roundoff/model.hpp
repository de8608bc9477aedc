// Round-off error model and detection-threshold selection (paper section 8).
//
// Two threshold sources coexist:
//
//  * paper_eta_*: the literal formulas of section 8 built on the
//    Weinstein/Gentleman floating-point FFT noise model, reproduced for the
//    Table 4 experiment (estimated eta vs measured max round-off).
//  * practical_eta: the default the library actually verifies against,
//    kSafety * eps * n^2 * sigma. The n^2 was sized for an input checksum
//    vector (rA) whose own rounding error grew as eps * |rA_t|^2 near its
//    poles, where |rA_t| = O(n). rA is now exact to a few ulps
//    (checksum/weights.hpp), so the n^2 term covers only the weighted dot
//    over entries up to O(n) and is otherwise margin: clean residuals sit
//    two to three decades below it. The thresholds are kept as they are
//    until each is re-derived from an FFT and dot error bound. They stay
//    orders of magnitude below any threshold an offline whole-transform
//    scheme could use — the detection-ability gap Tables 5 and 6 measure.
#pragma once

#include <cstddef>

namespace ftfft::roundoff {

/// Standard deviation of one rounding in double arithmetic,
/// sigma_eps = sqrt(0.21) * 2^-t with t = 52 mantissa bits (Gentleman &
/// Sande's empirical constant, as used by the paper).
[[nodiscard]] double sigma_eps() noexcept;

/// Std dev of the round-off noise on one output element of an n-point FFT
/// whose input components have std dev sigma0 (Weinstein's
/// noise-to-signal ratio 2 sigma_eps^2 log2 n).
[[nodiscard]] double fft_element_noise_sigma(std::size_t n,
                                             double sigma0) noexcept;

/// Paper's upper-bound estimate for the checksum-difference magnitude of one
/// protected n-point sub-FFT with input component sigma sigma0:
/// sigma_roe = n * sigma_e (section 8.1).
[[nodiscard]] double paper_checksum_noise_sigma(std::size_t n,
                                                double sigma0) noexcept;

/// Paper's threshold eta = 3 * sqrt(n) * sigma_roe for that sub-FFT layer.
[[nodiscard]] double paper_eta(std::size_t n, double sigma0) noexcept;

/// Standard normal CDF.
[[nodiscard]] double phi(double x) noexcept;

/// Expected throughput of a detector with threshold eta when the fault-free
/// checksum difference is N(0, sigma^2 * n): 1 / (3 - 2 Phi(eta / ...)),
/// section 8.1's formula.
[[nodiscard]] double throughput(double eta, std::size_t n,
                                double sigma) noexcept;

/// Practical default threshold for |rX - (rA)x| over an n-point sub-FFT
/// whose input components have std dev sigma0 (see file comment).
[[nodiscard]] double practical_eta(std::size_t n, double sigma0) noexcept;

// The practical thresholds factor as max(floor, coeff(n) * sigma0); the
// sigma-independent coefficient is what an abft::ProtectionPlan precomputes
// per layer so the per-sub-FFT threshold derivation in the hot path is one
// multiply (abft::threshold in abft/unit_check.hpp). eta_from_coeff(
// practical_eta_coeff(n), s) is bit-identical to practical_eta(n, s).

/// Coefficient of practical_eta: kSafety * eps * n^2.
[[nodiscard]] double practical_eta_coeff(std::size_t n) noexcept;

/// Threshold coefficient for plain/index dual memory checksums over n
/// elements (summation-only noise, section 8.2): kSafety * eps * n * sqrt(n).
[[nodiscard]] double practical_eta_memory_coeff(std::size_t n) noexcept;

/// Threshold coefficient for the real-transform post-pass verification over
/// an nc-point packed transform: kSafety * eps * nc * sqrt(nc), with a
/// factor 2 for the half-spectrum's nc+1 bins riding on top of the nc-point
/// pullback (the post-pass doubles element magnitudes at most). Both sides
/// of that comparison are dots with unit-modulus weights (omega3 over the
/// half-spectrum vs the conjugate-symmetry pullback over the packed
/// transform — see abft/real_protection.hpp), so the residual has the
/// plain-summation shape of the memory checksums, not the O(n)-weight rA
/// shape. Re-derived for the packed representation per Elliott et al.'s
/// observation that thresholds must follow the data representation.
[[nodiscard]] double practical_eta_real_coeff(std::size_t nc) noexcept;

/// Applies a precomputed threshold coefficient: max(floor, coeff * sigma0).
[[nodiscard]] double eta_from_coeff(double coeff, double sigma0) noexcept;

}  // namespace ftfft::roundoff
