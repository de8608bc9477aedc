// Configuration and statistics for the fault-tolerant FFT schemes.
//
// The paper evaluates named scheme variants (Fig. 7's Offline, Opt-Offline,
// CFTO-Online, Online, Opt-Online); here each variant is a combination of
// orthogonal switches so the ablation benchmarks can toggle one optimization
// at a time. The named presets below reproduce the paper's configurations
// exactly.
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

  /// Input-checksum-vector generation (section 7.1.1): naive trig vs the
  /// two-complex-multiplication recurrence.
  checksum::RaGenMethod ra_method = checksum::RaGenMethod::kClosedForm;

  /// Section 4.1: reuse the computational weights (rA) as the memory
  /// checksum r1' so input MCV and CCG become the same dot product.
  bool combined_checksums = true;

  /// Section 4.2: postpone input MCVs into the CCV after each sub-FFT, and
  /// compute the index-weighted localization sum only when a mismatch is
  /// detected.
  bool postpone_mcv = true;

  /// Section 4.3: accumulate the second-layer memory checksums incrementally
  /// while first-layer outputs are written, instead of a regeneration pass.
  bool incremental_mcg = true;

  /// Section 4.4: stage strided sub-FFT inputs through a contiguous buffer
  /// so checksum and transform read the data once from cache.
  bool contiguous_buffering = true;

  /// Maximum number of simultaneously corrupted elements the memory-fault
  /// repair will correct per protected region (PR 9). The default 1 (from
  /// FTFFT_MAX_ERRORS, clamped to [1, checksum::kMaxCorrectableErrors] at
  /// plan resolution) keeps today's dual-checksum single-error path
  /// bit-for-bit. t > 1 additionally maintains 2t weighted moment sums
  /// (syndromes) over each protected input region and, when the
  /// single-error locate fails its residual check, escalates to the
  /// Reed-Solomon-style decoder in checksum/multi_error.hpp before falling
  /// back to recompute. Derived intermediate checksums stay single-error —
  /// escalation guards the long-lived input/backup regions where spatial
  /// multi-bit bursts actually land.
  int max_correctable_errors = static_cast<int>(env_long("FTFFT_MAX_ERRORS", 1));

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

  /// Fig. 7 "Offline": Algorithm 1 with per-element trig generation.
  static Options offline_naive(bool memory) {
    Options o;
    o.mode = Mode::kOffline;
    o.memory_ft = memory;
    o.ra_method = checksum::RaGenMethod::kNaiveTrig;
    o.combined_checksums = false;
    o.postpone_mcv = false;
    o.incremental_mcg = false;
    o.contiguous_buffering = false;
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
    o.combined_checksums = false;
    o.postpone_mcv = false;
    o.incremental_mcg = false;
    o.contiguous_buffering = false;
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
