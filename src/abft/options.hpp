// Configuration and statistics for the fault-tolerant FFT schemes.
//
// The paper evaluates named scheme variants (Fig. 7's Offline, Opt-Offline,
// CFTO-Online, Online, Opt-Online); here each variant is a scheme, the
// memory_ft switch and the one `optimized` switch that selects the
// section-4 hierarchy as a whole. The named presets below reproduce the
// paper's configurations exactly.
#pragma once

#include <algorithm>
#include <cstddef>

#include "checksum/weights.hpp"
#include "common/env.hpp"
#include "fault/injector.hpp"

namespace ftfft::abft {

/// Which ABFT structure protects the transform.
enum class Mode {
  kNone,     ///< plain FFT, no protection (the "FFTW" baseline)
  kOffline,  ///< Algorithm 1: one checksum over the whole transform
  kOnline,   ///< Algorithm 2: two-layer per-sub-FFT checksums
};

/// Tuning switches. Defaults correspond to the fully optimized scheme.
struct Options {
  Mode mode = Mode::kOnline;

  /// Protect against memory faults as well as computational faults
  /// (section 3.2 hierarchy; off = section 3.1 computational-only).
  bool memory_ft = false;

  /// The section-4 hierarchy as one set, as Fig. 7 evaluates it: combined
  /// checksums (4.1: the computational weights rA double as the memory
  /// checksum, so input MCV and CCG are one dot product), postponed
  /// verification (4.2: input MCVs fold into the CCV after each sub-FFT and
  /// the localization sum runs only on a mismatch), incremental generation
  /// (4.3: second-layer checksums accumulate while first-layer outputs are
  /// written) and contiguous buffering (4.4: strided sub-FFT inputs are
  /// staged so checksum and transform read them once from cache). Off = the
  /// paper's naive hierarchy. The four are one switch because they are not
  /// independent: postponing the input MCV into the CCV is sound only when
  /// the memory checksum is the computational one, and the postponed
  /// backup is written from the staged second-layer blocks.
  bool optimized = true;

  /// Maximum number of simultaneously corrupted elements the memory-fault
  /// repair will correct per protected region. The default 1 comes
  /// from FTFFT_MAX_ERRORS, clamped to [1, checksum::kMaxCorrectableErrors]
  /// at plan resolution. One decoder, checksum::repair_errors, repairs every
  /// region: at t = 1 from the region's dual checksums, which are its
  /// 2-moment set. t > 1 additionally maintains 2t weighted moment sums
  /// (syndromes) over each protected input region and decodes those
  /// instead. Derived intermediate checksums keep their dual pair and so
  /// correct one error per region — the syndromes guard the long-lived
  /// input/backup regions where spatial multi-bit bursts actually land.
  int max_correctable_errors = max_errors_default();

  /// Detection threshold override; 0 = derive from the round-off model and
  /// the measured input energy.
  double eta_override = 0.0;

  /// Re-executions of one protection unit before giving up (the paper's
  /// verify loop runs unbounded; a bound turns model violations into a
  /// reported error instead of a hang).
  int max_retries = 4;

  /// Optional fault injector; hooks fire at the phases in fault/fault.hpp.
  fault::Injector* injector = nullptr;

  /// Online memory-FT only: keep the postponed final verification's
  /// intermediate backup in the caller's input array (the paper's
  /// zero-extra-memory choice) instead of an internal scratch allocation.
  /// The input then holds the intermediate column-major, as the second
  /// layer staged it; its original contents are gone.
  bool backup_in_input = false;

  // ---- Named presets matching the paper's evaluated schemes ----

  /// Fig. 7 "Offline": Algorithm 1 without the section-4 optimizations.
  static Options offline_naive(bool memory) {
    Options o;
    o.mode = Mode::kOffline;
    o.memory_ft = memory;
    o.optimized = false;
    return o;
  }

  /// Fig. 7 "Opt-Offline".
  static Options offline_opt(bool memory) {
    Options o;
    o.mode = Mode::kOffline;
    o.memory_ft = memory;
    return o;
  }

  /// Fig. 7(a) "CFTO-Online" / 7(b) "Online": two-layer scheme without the
  /// section-4 memory-path optimizations (computational-path buffering per
  /// 7(b)'s description stays on only in the *_opt preset).
  static Options online_naive(bool memory) {
    Options o;
    o.mode = Mode::kOnline;
    o.memory_ft = memory;
    o.optimized = false;
    return o;
  }

  /// Fig. 7 "Opt-Online": all optimizations.
  static Options online_opt(bool memory) {
    Options o;
    o.mode = Mode::kOnline;
    o.memory_ft = memory;
    return o;
  }

  /// Plain FFT baseline.
  static Options none() {
    Options o;
    o.mode = Mode::kNone;
    return o;
  }
};

/// Execution statistics; every protected transform fills one of these so
/// callers (and the experiments) can see what the fault tolerance did.
///
/// Every check runs through abft/unit_check.hpp, so the counters follow one
/// rule across schemes. A unit whose check fails is retried (computational
/// fault) or repaired (memory fault); once its max_retries re-executions
/// are spent, or a memory mismatch cannot be localized, the transform
/// throws UncorrectableError.
struct Stats {
  /// Failed checks blamed on computation; each one triggered a re-run.
  std::size_t comp_errors_detected = 0;
  /// Stored-data mismatches (input, intermediate, output or backup).
  std::size_t mem_errors_detected = 0;
  /// Of those, regions repaired in place or recomputed from a backup.
  std::size_t mem_errors_corrected = 0;
  /// Elements fixed by t > 1 syndrome decodes that located >= 2 errors in
  /// one region (a 2-burst adds 2).
  std::size_t multi_errors_corrected = 0;
  /// Re-executions of one sub-FFT unit (online, in-place, parallel FFT1).
  std::size_t sub_fft_retries = 0;
  /// Re-executions of a whole transform (offline, real post-pass).
  std::size_t full_restarts = 0;
  std::size_t dmr_mismatches = 0;        ///< twiddle/DMR votes taken
  /// Checksum comparisons performed, retries and repairs included.
  std::size_t verifications = 0;
  double eta_m = 0.0;                    ///< threshold used, first layer
  double eta_k = 0.0;                    ///< threshold used, second layer
  double eta_mem = 0.0;                  ///< threshold used, memory checksums
  double eta_real = 0.0;                 ///< threshold used, real post-pass

  void reset() { *this = Stats{}; }

  /// Merges another run's stats: counters add, thresholds keep the widest.
  Stats& operator+=(const Stats& o) {
    comp_errors_detected += o.comp_errors_detected;
    mem_errors_detected += o.mem_errors_detected;
    mem_errors_corrected += o.mem_errors_corrected;
    multi_errors_corrected += o.multi_errors_corrected;
    sub_fft_retries += o.sub_fft_retries;
    full_restarts += o.full_restarts;
    dmr_mismatches += o.dmr_mismatches;
    verifications += o.verifications;
    eta_m = std::max(eta_m, o.eta_m);
    eta_k = std::max(eta_k, o.eta_k);
    eta_mem = std::max(eta_mem, o.eta_mem);
    eta_real = std::max(eta_real, o.eta_real);
    return *this;
  }
};

}  // namespace ftfft::abft
