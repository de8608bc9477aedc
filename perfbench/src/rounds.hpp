// Paired rounds: the single-transform measurement shared by every workload.
//
// One round runs every entry point once, in an order that rotates from
// round to round, on the same input. Each protected time is divided by the
// unprotected baseline timed in the same round, so host drift (which moves
// all single-thread times together) cancels in the ratio. A ratio is only
// formed for rounds in which both ops returned a correct spectrum.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "abft/protection_plan.hpp"
#include "core/ftfft.hpp"
#include "inputs.hpp"
#include "parallel/parallel_plan.hpp"
#include "oracle.hpp"
#include "trace.hpp"

namespace perfbench {

/// Entry points timed in every round. kCanary is a deliberate two-element
/// burst in one checksum slot of a t = 1 plan, which the library must
/// refuse: it keeps fail_ratio measurable (never 0) and exercises the
/// refusal path on every workload.
enum Entry : int {
  kPlain,       ///< fft::InplaceRadix2Plan::forward_copy (the denominator)
  kOnlineComp,  ///< FtPlan, online, computational FT only
  kOnlineMem,   ///< FtPlan::forward defaults (online + memory FT)
  kInplace,     ///< FtPlan::forward_inplace (k*r*k scheme)
  kOffline,     ///< FtPlan with Protection::kOffline
  kR2cPlain,    ///< fft::RealFftPlan::r2c (denominator of r2c_x)
  kR2c,         ///< abft::protected_r2c with the default options
  kSharded,     ///< parallel::submit_parallel on a one-worker BatchEngine
  kCanary,
  kEntryCount
};
[[nodiscard]] const char* entry_name(int e);

/// Sum of a counter over every plan cache (misses, or seal verifications).
[[nodiscard]] std::uint64_t plan_counter(bool verifications);
/// Layer a span around this entry point is attributed to.
[[nodiscard]] const char* entry_layer(int e);

/// Outcome counts over every op a workload attempted.
struct OpTally {
  std::size_t attempted = 0;
  std::size_t ok = 0;
  std::size_t refused = 0;  ///< threw UncorrectableError
  std::size_t wrong = 0;    ///< returned a spectrum outside the oracle bound
  std::size_t errors = 0;   ///< threw an exception outside the taxonomy
  std::size_t canaries = 0;
  std::size_t canaries_failed = 0;
  std::size_t faulted = 0;     ///< non-canary ops carrying injected faults
  std::size_t faulted_ok = 0;  ///< ... that returned a correct spectrum
  std::size_t faults_scheduled = 0;
  std::size_t faults_fired = 0;
  std::array<std::size_t, kFamilyCount> false_alarms{};  ///< clean refusals
  /// The same refusals by (entry point, family).
  std::array<std::array<std::size_t, kFamilyCount>, kEntryCount>
      false_alarm_pairs{};
  std::size_t protected_ops = 0;
  ftfft::abft::Stats stats;  ///< summed over protected non-canary ops
  std::vector<std::string> messages;  ///< first few wrong/error details

  void record(Outcome o, const std::string& what);
  void add_stats(const ftfft::abft::Stats& s);
  /// Ops that did not deliver a correct spectrum (the fail_ratio numerator).
  [[nodiscard]] std::size_t failed() const { return refused + wrong + errors; }
};

struct RoundSpec {
  std::size_t n;
  std::vector<Family> families;
  bool faults;  ///< one seeded in-model fault per protected op
  std::uint64_t seed;
};

struct RoundData {
  /// ms[e][round]: op time, NaN when the op did not return a correct result.
  std::array<std::vector<double>, kEntryCount> ms;
  /// Per block of rounds, over the correct single-thread ops (every entry
  /// point but kSharded, whose time includes engine worker hand-offs):
  /// ops per second of their own op time, and the p50 / p99 op latency.
  /// Medians over blocks give capacity_lps and job_p50/p99_ms; a whole-run
  /// p99 was decided by the few blocks a host burst or an unlucky seeded
  /// restart hit, and spread 0.3-0.4 between A/A runs.
  std::vector<double> block_lps, block_p50_ms, block_p99_ms;
  std::array<std::vector<double>, 3> phase_ms;  ///< sharded phase walls
  std::size_t bytes_per_rank = 0;
  std::vector<double> submit_us;  ///< time inside submit_parallel
  /// Traced-run overhead pairs: wall time of alternating blocks of rounds.
  std::vector<double> traced_block_ms, untraced_block_ms;
  std::size_t rounds = 0;
  double wall_s = 0.0;
  std::uint64_t plan_misses = 0, plan_verifications = 0;
};

class RoundRunner {
 public:
  /// Generates the input pool (not part of set-up time).
  explicit RoundRunner(RoundSpec spec);
  ~RoundRunner();
  RoundRunner(const RoundRunner&) = delete;
  RoundRunner& operator=(const RoundRunner&) = delete;

  /// Warms plans, builds every plan object and makes one untimed call per
  /// entry point. Returns its wall time in seconds.
  double setup(Tracer& tr);
  /// Unprotected reference spectra for the pool, cross-checked against the
  /// reference DFT. Must follow setup().
  void prepare_oracle();
  /// Runs whole blocks of rounds until `seconds` have passed.
  void run(double seconds, Tracer& tr, OpTally& tally, RoundData& data);

  [[nodiscard]] std::size_t n() const noexcept { return spec_.n; }
  /// Sub-FFT sizes of the default online plan (n = m * k).
  [[nodiscard]] std::size_t m() const noexcept { return m_; }
  [[nodiscard]] std::size_t k() const noexcept { return k_; }
  [[nodiscard]] double warm_seconds() const noexcept { return warm_s_; }
  [[nodiscard]] ftfft::engine::SchedulerStats scheduler_stats() const;
  [[nodiscard]] const std::vector<cplx>& sample_input() const {
    return pool_.front().x;
  }
  [[nodiscard]] const std::vector<double>& sample_real_input() const {
    return pool_.front().xr;
  }

 private:
  struct Sample {
    Family family;
    std::vector<cplx> x, spectrum;    // complex input and its reference
    std::vector<double> xr;           // real input
    std::vector<cplx> half_spectrum;  // and its reference
  };

  std::size_t arm(int e, std::size_t round, bool& use_t2);
  void prepare(int e, const Sample& s);
  void invoke(int e, const Sample& s, bool use_t2);
  Outcome verdict(int e, const Sample& s, std::string* what);
  void run_round(std::size_t round, Tracer& tr, OpTally& tally,
                 RoundData& data);

  RoundSpec spec_;
  std::vector<Sample> pool_;
  std::size_t m_ = 0, k_ = 0;
  double warm_s_ = 0.0;
  std::int64_t next_op_ = 0;

  std::shared_ptr<const ftfft::fft::InplaceRadix2Plan> plain_;
  std::shared_ptr<const ftfft::fft::RealFftPlan> real_;
  // Held only to pin the warmed sharded plan against LRU eviction.
  std::shared_ptr<const ftfft::parallel::ParallelPlan> parallel_plan_;
  std::array<ftfft::fault::Injector, kEntryCount> inj_;
  std::unique_ptr<ftfft::FtPlan> comp_, mem_, mem_t2_, inplace_, offline_,
      canary_;
  ftfft::abft::Options real_opts_;
  std::shared_ptr<const ftfft::abft::RealProtectionPlan> real_plan_;
  std::shared_ptr<const ftfft::abft::ProtectionPlan> real_packed_plan_;
  ftfft::abft::Stats real_stats_;
  ftfft::parallel::ParallelOptions parallel_opts_;
  ftfft::parallel::ParallelReport parallel_report_;
  std::unique_ptr<ftfft::engine::BatchEngine> engine_;

  std::vector<cplx> in_, out_, half_out_, sharded_in_, sharded_out_;
  std::int64_t submit_ns_ = 0;
  std::vector<double> block_ok_ms_;  // correct single-thread ops this block
  double block_op_s_ = 0.0;          // time all single-thread ops took
};

}  // namespace perfbench
