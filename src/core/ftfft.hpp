// FT-FFT public API.
//
// One include gives a downstream user the whole library:
//
//   #include "core/ftfft.hpp"
//
//   ftfft::FtPlan plan(1 << 20);           // online ABFT, memory FT, optimized
//   auto spectrum = plan.forward(signal);  // soft-error-protected transform
//   plan.last_stats();                     // what the fault tolerance did
//
// FtPlan wraps the sequential schemes (abft/); the distributed six-step
// transform (parallel::submit_parallel, one engine-sharded executor) lives
// in parallel/parallel_fft.hpp and the raw unprotected engine in
// fft/fft.hpp. All of those headers are re-exported here.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "abft/inplace.hpp"     // IWYU pragma: export
#include "abft/options.hpp"     // IWYU pragma: export
#include "abft/protected_fft.hpp"  // IWYU pragma: export
#include "abft/real_protection.hpp"  // IWYU pragma: export
#include "common/complex.hpp"   // IWYU pragma: export
#include "common/error.hpp"     // IWYU pragma: export
#include "common/plan_registry.hpp"  // IWYU pragma: export (plan_cache_stats)
#include "common/rng.hpp"       // IWYU pragma: export
#include "engine/batch_engine.hpp"  // IWYU pragma: export
#include "fault/injector.hpp"   // IWYU pragma: export
#include "fft/fft.hpp"          // IWYU pragma: export
#include "fft/real_fft.hpp"     // IWYU pragma: export
#include "parallel/parallel_fft.hpp"  // IWYU pragma: export

namespace ftfft {

/// Protection level of a plan.
enum class Protection {
  kNone,     ///< plain FFT (fastest, no fault tolerance)
  kOffline,  ///< one checksum over the whole transform (Algorithm 1)
  kOnline,   ///< per-sub-FFT checksums, online correction (Algorithm 2)
};

/// Plan-wide configuration.
struct PlanConfig {
  Protection protection = Protection::kOnline;
  /// Also detect/locate/correct memory faults (paper section 3.2).
  bool memory_fault_tolerance = true;
  /// Apply the section-4 overhead optimizations (off = the paper's naive
  /// variants, useful for measurement only).
  bool optimized = true;
  /// Detection threshold override (0 = derive from the round-off model).
  double eta_override = 0.0;
  /// Re-execution budget per protection unit.
  int max_retries = 4;
  /// Simultaneous-error budget per checksummed block: 0 inherits the
  /// process default (`FTFFT_MAX_ERRORS`, normally 1 = dual-checksum
  /// behavior); 2..4 enables the 2t-moment syndrome decoder.
  int max_correctable_errors = 0;
  /// Optional fault injector for experiments.
  fault::Injector* injector = nullptr;
};

/// Translates the plan-level configuration into the ABFT option set used by
/// FtPlan. Batch callers submit with it to the engine directly —
/// `engine::BatchEngine::shared().submit_batch(lanes, n,
/// {make_abft_options(config)})` — after tweaking individual switches if
/// they need to.
[[nodiscard]] abft::Options make_abft_options(const PlanConfig& config);

/// Pre-resolves every plan a serving layer with a known size distribution
/// will need — FFT decomposition plans (including the sub-FFT sizes the
/// protected schemes execute) and the ABFT ProtectionPlans, out-of-place
/// and in-place variants — so the first submission of each size is a pure
/// cache hit: zero rA-generation passes, zero plan builds. Variants a size
/// does not support (e.g. the in-place k*r*k shape for square-free n) are
/// skipped. Returns the number of distinct ProtectionPlans resident for
/// the requested sizes (already-cached plans count — they are resident).
std::size_t warm_plans(std::span<const std::size_t> sizes,
                       const PlanConfig& config = {});

/// Real-transform analogue of warm_plans: pre-resolves, per size, the
/// RealFftPlan (with its packed n/2-point in-place plan), the
/// RealProtectionPlan and the packed transform's complex ProtectionPlan
/// with its sub-FFT decompositions — so a warmed submit_real_batch does
/// zero plan builds and zero rA-generation passes. Sizes that are not a
/// power of two >= 2 are skipped. Returns the number of distinct
/// RealProtectionPlans (RealFftPlans under Protection::kNone) resident for
/// the requested sizes.
std::size_t warm_real_plans(std::span<const std::size_t> sizes,
                            const PlanConfig& config = {});

/// A reusable soft-error-protected transform of one size.
///
/// Thread-compatibility: a plan holds per-execution statistics, so share
/// one plan per thread (constructing extra plans is cheap — the heavy
/// decomposition tables are cached process-wide).
class FtPlan {
 public:
  explicit FtPlan(std::size_t n, PlanConfig config = {});

  /// Protected out-of-place forward DFT. `in` is non-const: detected input
  /// memory faults are repaired in the caller's array (the input is
  /// otherwise preserved).
  void forward(cplx* in, cplx* out);

  /// Convenience overload: copies the input, returns the spectrum.
  [[nodiscard]] std::vector<cplx> forward(std::vector<cplx> input);

  /// Protected in-place forward DFT (the k*r*k scheme of section 5 when
  /// protection is kOnline; plain/offline otherwise). Natural-order output.
  void forward_inplace(cplx* data);

  /// Protected inverse DFT (1/n normalized), implemented as the conjugate
  /// of a protected forward transform; the conjugation passes themselves
  /// are unprotected O(n) copies.
  void backward(cplx* in, cplx* out);

  /// Statistics of the most recent execution on this plan.
  [[nodiscard]] const abft::Stats& last_stats() const { return stats_; }

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] const PlanConfig& config() const { return config_; }

  /// Library version string.
  static const char* version();

 private:
  [[nodiscard]] abft::Options abft_options() const;

  /// Resolves (once) and returns the shared ProtectionPlan for this plan's
  /// size and options; nullptr when protection is kNone. The plan is held
  /// across calls so repeated transforms skip even the cache lookup.
  const abft::ProtectionPlan* protection_plan(bool inplace);

  std::size_t n_;
  PlanConfig config_;
  abft::Stats stats_;
  std::vector<cplx> scratch_;
  std::shared_ptr<const abft::ProtectionPlan> plan_;          // out-of-place
  std::shared_ptr<const abft::ProtectionPlan> plan_inplace_;  // k*r*k
};

}  // namespace ftfft
