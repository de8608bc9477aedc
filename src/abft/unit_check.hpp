// One protection unit: the verify-retry-repair step of the online scheme
// (paper sections 3.1-3.2), written once for every scheme.
//
// Each protected unit — a sub-FFT, a whole transform, a stored region, a
// transposed block — does the same thing: derive a detection threshold from
// the round-off model, compare a checksum against its reference, re-run the
// unit on a computational error, locate and correct a memory error, and give
// up with UncorrectableError when the fault model is violated. The online,
// in-place, offline and real schemes and both parallel paths run every check
// through threshold, repair_region and verify_with_retry, so the counting
// rules (see Stats) and the point where a unit gives up live here. Every
// sub-FFT — the online m- and k-point layers, in-place layers 1 and 3 and
// sharded FFT1 — runs through run_sub_fft, built on the three. Where the
// sub-FFT runs on the in-place engine, the online and in-place schemes
// stage its input in bit-reversed order and the unit carries that
// permutation (SubFft::perm), so the engine starts at its butterflies.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "abft/options.hpp"
#include "checksum/dot.hpp"
#include "checksum/multi_error.hpp"
#include "common/complex.hpp"
#include "roundoff/model.hpp"

namespace ftfft::fft {
class Fft;
}

namespace ftfft::abft {

/// Detection threshold for a check over n values of total energy `energy`:
/// eta_override when positive, else roundoff::eta_from_coeff(coeff, sigma)
/// with sigma = sqrt(energy / 2n) the rms component scale.
[[nodiscard]] inline double threshold(double coeff, double energy,
                                      std::size_t n,
                                      double eta_override) noexcept {
  if (eta_override > 0.0) return eta_override;
  return roundoff::eta_from_coeff(
      coeff, std::sqrt(energy / (2.0 * static_cast<double>(n)) + 1e-300));
}

/// Throws UncorrectableError(what): the single point where a protection
/// unit gives up.
[[noreturn]] void uncorrectable(const char* what);

/// Counters a repair_region call advances: `detected` per mismatch,
/// `corrected` per repaired region, `multi` by the element count of a
/// repair that decoded two or more errors, and `verifications` (when
/// non-null) per comparison.
struct RepairTally {
  std::size_t& detected;
  std::size_t& corrected;
  std::size_t& multi;
  std::size_t* verifications = nullptr;

  /// The memory-fault counters of `stats`; `count_check` also counts the
  /// comparison as a verification.
  static RepairTally of(Stats& stats, bool count_check) {
    return {stats.mem_errors_detected, stats.mem_errors_corrected,
            stats.multi_errors_corrected,
            count_check ? &stats.verifications : nullptr};
  }
};

/// Checksums stored over a region: the dual pair, decoded as its t = 1
/// moment set, or (syn != nullptr) the 2t syndrome moments decoded for up
/// to max_errors corruptions with the plan-cached node table `nodes` (may
/// be null).
struct StoredSums {
  checksum::DualSum dual{};
  const checksum::SyndromeSet* syn = nullptr;
  int max_errors = 1;
  const double* nodes = nullptr;
};

/// Recomputes `stored` over the n elements data[0], data[stride], ...
/// (generation weights w, nullptr = all ones), and locates and corrects a
/// mismatch beyond eta in place through checksum::repair_errors. Returns
/// true when a fault was found and corrected, false when the region
/// verifies. Throws UncorrectableError(what) when a mismatch cannot be
/// localized. `flagged`: the caller already saw a mismatch with a cheaper
/// check, so a region that then verifies clean also throws. `applied`
/// (when non-null) receives the corrections the repair made.
bool repair_region(const StoredSums& stored, cplx* data, std::size_t stride,
                   const cplx* w, std::size_t n, double eta,
                   const RepairTally& tally, const char* what,
                   bool flagged = false,
                   checksum::Corrections* applied = nullptr);

/// Outcome of one attempt of a unit: the residual of its checksum
/// comparison and the threshold it must stay within.
struct Check {
  double residual;
  double eta;
};

/// The CCV of a sub-FFT unit: |omega3 . y - ref| over its n outputs.
[[nodiscard]] inline Check omega3_check(const cplx* y, std::size_t n,
                                        cplx ref, double eta) {
  return {std::abs(checksum::omega3_weighted_sum(y, n) - ref), eta};
}

/// Runs one protected unit until its check passes. `run()` executes
/// the unit (firing its fault hooks) and returns its Check; every attempt
/// counts one verification. A failed check is retried at most max_retries
/// times, each retry advancing stats.*retries; `recover()` then returns
/// true when it located and repaired a memory fault behind the failure,
/// else the failure counts as a computational error. When the retries are
/// spent the unit throws UncorrectableError(what): with max_retries = r a
/// persistently failing unit reads r retries, r computational errors and
/// r + 1 verifications.
template <class Run, class Recover>
void verify_with_retry(Stats& stats, std::size_t Stats::*retries,
                       int max_retries, const char* what, Run&& run,
                       Recover&& recover) {
  for (int attempt = 0;; ++attempt) {
    const Check c = run();
    ++stats.verifications;
    if (c.residual <= c.eta) return;
    if (attempt >= max_retries) uncorrectable(what);
    ++(stats.*retries);
    if (!recover()) ++stats.comp_errors_detected;
  }
}

/// verify_with_retry without a memory-fault split: every failure is
/// computational.
template <class Run>
void verify_with_retry(Stats& stats, std::size_t Stats::*retries,
                       int max_retries, const char* what, Run&& run) {
  verify_with_retry(stats, retries, max_retries, what, run,
                    [] { return false; });
}

/// The input repair of a sub-FFT unit (Fig. 4): repair_region over the
/// slot data[0], data[stride], ... against its stored sums (weights w). A
/// repaired slot that is not the unit's input (the caller's array behind a
/// staged copy) refreshes the input from it.
struct SlotRepair {
  StoredSums stored;
  cplx* data = nullptr;  ///< nullptr: the unit has no input repair
  std::size_t stride = 1;
  const cplx* w = nullptr;
  double eta = 0.0;
  bool count_check = false;  ///< RepairTally::of(stats, count_check)
  bool record_eta = false;   ///< a re-check widens stats.eta_mem to eta
  bool before_run = false;   ///< also re-check before the first attempt
  const char* what = nullptr;
};

/// One protected sub-FFT: `engine` over in[0], in[stride], ... into the
/// contiguous `out`, the injector's (phase, index) hook on the output, and
/// the omega3 check against the CCG within eta (widening stats.*eta_stat).
/// The CCG is `ccg`, or the dot ccg_w . in (retaken after a repair) when
/// ccg_w is non-null.
///
/// A staged input may be held in the engine's bit-reversed order: then
/// `perm` is engine.bit_reversal(), stride is 1 and in[i] holds element
/// perm[i]. Every attempt runs engine.execute_bit_reversed (bitwise the
/// natural-order transform), a slot repair refreshes in[perm[t]], and a
/// retaken CCG sums in natural order through perm, so the unit computes
/// what it would on a natural-order copy. The input repair must then name
/// the caller's natural-order slot, not the staged copy.
struct SubFft {
  fft::Fft& engine;
  cplx* in;
  std::size_t stride;
  cplx* out;
  cplx ccg;
  const cplx* ccg_w;
  double eta;
  double Stats::*eta_stat;
  fault::Injector* inj;
  fault::Phase phase;
  std::size_t index;
  const char* what;  ///< thrown when the retries are spent
  SlotRepair repair{};
  const std::uint32_t* perm = nullptr;  ///< in's order, or natural
};

/// Runs `unit` through verify_with_retry (stats.sub_fft_retries); a failed
/// check asks the input repair whether a memory fault caused it. Kept out
/// of line, as the online layer-1 unit it replaces was: inlined into that
/// loop it measured ~2% slower (GCC 12, perfbench online_comp_x and
/// online_mem_x on an AVX-512 Xeon).
[[gnu::noinline]] void run_sub_fft(const SubFft& unit, int max_retries,
                                   Stats& stats);

}  // namespace ftfft::abft
