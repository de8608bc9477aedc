// Six-step distributed FFT with the paper's parallel online ABFT scheme.
//
// Plan (paper section 5): with N points on p ranks (n_loc = N/p per rank,
// bsz = N/p^2 per block),
//
//   transpose1 -> FFT1 (bsz p-point column FFTs per rank, each ABFT-protected
//   with a gathered-buffer backup) -> transpose2 -> TM (DMR, fused into
//   reception) -> FFT2 (one protected in-place n_loc-point FFT per rank,
//   k*r*k plan from abft/inplace.hpp) -> transpose3 -> local adjustment.
//
// Every transposed block carries dual checksums; with overlap enabled the
// checksum generation/verification and the twiddle ride under the
// communication (section 6.1 / Algorithm 3), which is how opt-FT-FFTW
// approaches the unprotected baseline in Fig. 8.
#pragma once

#include <array>
#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "abft/options.hpp"
#include "common/complex.hpp"
#include "common/env.hpp"
#include "parallel/comm.hpp"
#include "parallel/transpose.hpp"

namespace ftfft::engine {
class BatchEngine;
}  // namespace ftfft::engine

namespace ftfft::parallel {

/// Which of the paper's four Fig. 8 variants to run.
struct ParallelOptions {
  bool protect = true;    ///< ABFT + DMR + checksummed messages
  bool overlap = true;    ///< Algorithm 3 pipelined transposes
  bool memory_ft = true;  ///< message/memory checksums (protect only)
  double eta_override = 0.0;
  int max_retries = 4;
  NetworkModel net{};
  std::uint64_t seed = 0x5EED;

  // Appended after the positionally-initialized preset fields, so the four
  // Fig. 8 variants inherit these defaults.

  /// Sharded path (submit_parallel) only: whole-transform restarts allowed
  /// when a modeled rank failure (NetworkModel::fail_rank) kills a phase —
  /// the node-loss recovery the thread-per-rank reference path cannot
  /// offer (it propagates RankFailedError).
  int max_rank_restarts = 0;

  /// Maximum simultaneously corrupted elements per transposed block the
  /// message checksums can correct (PR 9; abft::Options has the same knob
  /// for the sequential schemes). 1 = today's dual-checksum payload
  /// bit-for-bit; t > 1 ships 2t syndrome moments per block instead and
  /// decodes bursts through checksum::repair_errors. Clamped to
  /// [1, checksum::kMaxCorrectableErrors] at plan resolution. Default from
  /// FTFFT_MAX_ERRORS.
  int max_correctable_errors =
      static_cast<int>(env_long("FTFFT_MAX_ERRORS", 1));

  static ParallelOptions fftw() { return {false, false, false, 0, 4, {}, 0x5EED}; }
  static ParallelOptions ft_fftw() { return {true, false, true, 0, 4, {}, 0x5EED}; }
  static ParallelOptions opt_fftw() { return {false, true, false, 0, 4, {}, 0x5EED}; }
  static ParallelOptions opt_ft_fftw() { return {true, true, true, 0, 4, {}, 0x5EED}; }
};

/// Communication/compute split of one sharded six-step phase (transpose1 +
/// FFT1, transpose2 + twiddle + FFT2, transpose3 + adjust).
struct PhaseBreakdown {
  double wall_seconds = 0.0;     ///< host wall-clock time of the phase
  double max_cpu_seconds = 0.0;  ///< max per-rank thread-CPU seconds
  double modeled_comm = 0.0;     ///< max per-rank alpha-beta modeled comm
};

/// Aggregated outcome of one distributed transform.
struct ParallelReport {
  double makespan = 0.0;      ///< simulated seconds, max over ranks
  double max_compute = 0.0;   ///< max per-rank compute seconds
  double max_comm = 0.0;      ///< max per-rank modeled comm seconds
  std::size_t bytes_per_rank = 0;
  abft::Stats stats;          ///< summed over ranks
  TransposeStats comm_stats;  ///< summed over ranks

  // ---- engine-sharded path only (submit_parallel) ----
  bool sharded = false;           ///< produced by the sharded executor
  std::size_t rank_restarts = 0;  ///< whole-transform restarts absorbed
  /// Per-phase comm/compute split; all zero on the reference path, whose
  /// phases interleave per rank and cannot be separated after the fact.
  std::array<PhaseBreakdown, 3> phases{};
};

/// Runs the distributed forward DFT of `input` (size N = p * n_loc,
/// N divisible by p^2) on `p` simulated ranks and returns the transform in
/// natural order. `arm` (optional) schedules faults on each rank's injector
/// before the run. Requirements: p not divisible by 3 and, when protect is
/// set, n_loc acceptable to abft::inplace_shape (any power of two >= 4 is).
std::vector<cplx> parallel_fft(
    std::size_t p, const std::vector<cplx>& input, const ParallelOptions& opts,
    ParallelReport* report = nullptr,
    const std::function<void(std::size_t rank, fault::Injector&)>& arm = {});

// ---------------------------------------------------------------------------
// Engine-sharded execution (parallel/sharded_fft.cpp).
//
// The thread-per-rank path above spawns p threads, runs mailbox exchanges
// between them and copies every block through per-message payload buffers —
// faithful to MPI semantics, but for one huge transform on one host the
// synchronization and the extra copies are pure overhead. submit_parallel
// executes the same six-step algorithm as p *lanes on a BatchEngine*: each
// of the three communication phases is one submit_tasks fan-out whose rank
// tasks pull their blocks directly from the previous phase's shared output
// array (the "message" copy IS the transpose copy, with the dual message
// checksum fused into it via checksum::copy_dual_sum), and phases chain
// through completion callbacks, so one submission pipelines across the
// worker pool with no rank threads, no mailboxes and no barrier. All
// arithmetic that touches data is shared with or identical to the
// reference path, so the output is bit-identical to parallel_fft;
// protection semantics (per-block verification and repair, CMCG, DMR
// twiddle, k*r*k FFT2, final adjust guards) are unchanged.

namespace detail {
struct ShardedState;  // completion state shared by executor and future
}  // namespace detail

class ParallelFuture;

/// Queues the distributed forward DFT of `input` (size N = p * n_loc, same
/// geometry rules as parallel_fft) as three chained rank fan-outs on
/// `engine` (nullptr = the process-wide engine::BatchEngine::shared()) and
/// returns immediately. `input` is taken by value and owned by the
/// submission. `arm` schedules faults per simulated rank before anything
/// runs. Misuse (bad geometry) throws std::invalid_argument synchronously;
/// execution failures surface from ParallelFuture::get.
ParallelFuture submit_parallel(
    std::size_t p, std::vector<cplx> input, const ParallelOptions& opts,
    const std::function<void(std::size_t rank, fault::Injector&)>& arm = {},
    engine::BatchEngine* engine = nullptr);

/// Blocking convenience: submit_parallel(...).get(report).
std::vector<cplx> parallel_fft_sharded(
    std::size_t p, const std::vector<cplx>& input, const ParallelOptions& opts,
    ParallelReport* report = nullptr,
    const std::function<void(std::size_t rank, fault::Injector&)>& arm = {});

/// Completion handle for a sharded submission: wait for the transform,
/// then collect the spectrum and the ParallelReport. Movable and copyable
/// (all copies observe the same completion); get() hands the output out
/// once and invalidates the handle, like std::future.
class ParallelFuture {
 public:
  ParallelFuture() = default;  ///< invalid until assigned from submit_parallel

  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }

  /// True once the transform (or its failure) is available. Throws
  /// std::invalid_argument on an invalid future.
  [[nodiscard]] bool ready() const;

  /// Blocks until the transform completes.
  void wait() const;

  /// Blocks until completion, then moves the spectrum out (and copies the
  /// report, when asked). Rethrows the first rank failure — preserving the
  /// library's error taxonomy (UncorrectableError, RankFailedError) — and
  /// one-shot: the future becomes invalid afterwards.
  std::vector<cplx> get(ParallelReport* report = nullptr);

 private:
  friend ParallelFuture submit_parallel(
      std::size_t p, std::vector<cplx> input, const ParallelOptions& opts,
      const std::function<void(std::size_t rank, fault::Injector&)>& arm,
      engine::BatchEngine* engine);
  explicit ParallelFuture(std::shared_ptr<detail::ShardedState> state);

  std::shared_ptr<detail::ShardedState> state_;
};

}  // namespace ftfft::parallel
