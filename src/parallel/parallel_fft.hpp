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
// submit_parallel is the one executor (parallel/sharded_fft.cpp): the p
// simulated ranks are p work items per phase on a BatchEngine, and every
// transposed block is a direct copy between shared arrays that carries its
// dual message checksum (generated inside the copy). With overlap enabled
// a rank's phase is charged max(compute, communication) instead of their
// sum — Algorithm 3's pipelined transposes (section 6.1), which in the
// paper's network-bound runs brings opt-FT-FFTW close to the unprotected
// baseline of Fig. 8.
#pragma once

#include <array>
#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "abft/options.hpp"
#include "common/complex.hpp"
#include "common/env.hpp"
#include "fault/injector.hpp"
#include "parallel/network_model.hpp"

namespace ftfft::engine {
class BatchEngine;
}  // namespace ftfft::engine

namespace ftfft::parallel {

/// Which of the paper's four Fig. 8 variants to run.
struct ParallelOptions {
  bool protect = true;    ///< ABFT + DMR + checksummed messages
  bool overlap = true;    ///< Algorithm 3: charge max(compute, comm) per phase
  bool memory_ft = true;  ///< message/memory checksums (protect only)
  double eta_override = 0.0;
  int max_retries = 4;
  NetworkModel net{};

  // Appended after the positionally-initialized preset fields, so the four
  // Fig. 8 variants inherit its default.

  /// Maximum simultaneously corrupted elements per transposed block the
  /// message checksums can correct (PR 9; abft::Options has the same knob
  /// for the sequential schemes). 1 ships the dual checksums, the 2-moment
  /// set; t > 1 ships 2t syndrome moments per block instead. Either way
  /// checksum::repair_errors decodes the received block. Clamped to
  /// [1, checksum::kMaxCorrectableErrors] at plan resolution. Default from
  /// FTFFT_MAX_ERRORS.
  int max_correctable_errors = max_errors_default();

  static ParallelOptions fftw() { return {false, false, false, 0, 4, {}}; }
  static ParallelOptions ft_fftw() { return {true, false, true, 0, 4, {}}; }
  static ParallelOptions opt_fftw() { return {false, true, false, 0, 4, {}}; }
  static ParallelOptions opt_ft_fftw() { return {true, true, true, 0, 4, {}}; }
};

/// Communication/compute split of one six-step phase (transpose1 +
/// FFT1, transpose2 + twiddle + FFT2, transpose3 + adjust).
struct PhaseBreakdown {
  double wall_seconds = 0.0;     ///< host wall-clock time of the phase
  double max_cpu_seconds = 0.0;  ///< max per-rank thread-CPU seconds
  double modeled_comm = 0.0;     ///< max per-rank alpha-beta modeled comm
};

/// Message-checksum outcome counters of the three transposes.
struct TransposeStats {
  std::size_t comm_errors_detected = 0;
  std::size_t comm_errors_corrected = 0;
  /// Corrections recovered by a multi-error decode fixing >= 2 elements of
  /// one block (counts elements, so a 2-burst adds 2). Subset-adjacent to
  /// comm_errors_corrected, which keeps counting blocks repaired.
  std::size_t comm_multi_corrected = 0;
  std::size_t bytes_sent = 0;
  /// Blocks received over the (simulated) link, resident block excluded.
  std::size_t messages_received = 0;

  TransposeStats& operator+=(const TransposeStats& o) {
    comm_errors_detected += o.comm_errors_detected;
    comm_errors_corrected += o.comm_errors_corrected;
    comm_multi_corrected += o.comm_multi_corrected;
    bytes_sent += o.bytes_sent;
    messages_received += o.messages_received;
    return *this;
  }
};

/// Aggregated outcome of one distributed transform.
struct ParallelReport {
  /// Simulated seconds, max over ranks of the per-phase sum of compute and
  /// modeled comm (of their max, under ParallelOptions::overlap).
  double makespan = 0.0;
  double max_compute = 0.0;   ///< max per-rank compute seconds
  double max_comm = 0.0;      ///< max per-rank modeled comm seconds
  std::size_t bytes_per_rank = 0;
  abft::Stats stats;          ///< summed over ranks
  TransposeStats comm_stats;  ///< summed over ranks
  std::array<PhaseBreakdown, 3> phases{};  ///< per-phase comm/compute split
};

namespace detail {
struct ShardedState;  // completion state shared by executor and future
}  // namespace detail

class ParallelFuture;

/// Queues the distributed forward DFT of `input` (size N = p * n_loc,
/// N divisible by p^2) on `p` simulated ranks as three chained rank
/// fan-outs on `engine` (nullptr = the process-wide
/// engine::BatchEngine::shared()) and returns immediately; get() yields the
/// transform in natural order. Requirements: p >= 2, p not divisible by 3
/// and, when protect is set, n_loc acceptable to abft::inplace_shape (any
/// power of two >= 4 is). `input` is taken by value and owned by the
/// submission. `arm` schedules faults per simulated rank before anything
/// runs; a Phase::kCommBlock fault on rank r hits the block it receives
/// from sender q != r in transpose s (0, 1, 2) at unit s * p + q, between
/// the sender's checksum and the receiver's verification (on the
/// unprotected variants nothing verifies it). Misuse (bad geometry) throws
/// std::invalid_argument synchronously; execution failures surface from
/// ParallelFuture::get.
ParallelFuture submit_parallel(
    std::size_t p, std::vector<cplx> input, const ParallelOptions& opts,
    const std::function<void(std::size_t rank, fault::Injector&)>& arm = {},
    engine::BatchEngine* engine = nullptr);

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
  /// report, when asked). Rethrows the first rank failure (an
  /// UncorrectableError when a fault lies beyond the model) and is
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
