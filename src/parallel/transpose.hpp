// Distributed block transpose with checksummed messages and optional
// communication-computation overlap (paper sections 5-6, Algorithm 3).
//
// Data layout: each rank holds nranks blocks of block_len contiguous
// elements. The transpose exchanges block j of rank i with block i of rank
// j — the primitive behind all three "global comm" steps of the six-step
// parallel FFT.
//
// With checksums enabled, every block travels with its two dual checksums
// (2 extra complex values per block, the paper's ~2p/n communication
// overhead); the receiver verifies and can localize+correct one corrupted
// element per block. With overlap enabled, the per-step timing charges
// max(comm, pack+process) instead of their sum, modeling Algorithm 3's
// double-buffered pipeline.
#pragma once

#include <cstddef>
#include <functional>

#include "abft/unit_check.hpp"
#include "common/complex.hpp"
#include "parallel/comm.hpp"

namespace ftfft::parallel {

/// Per-transpose behavior.
struct TransposeOptions {
  bool checksums = true;  ///< append + verify per-block dual checksums
  bool overlap = false;   ///< Algorithm 3 pipelined timing
  double eta = 1e-9;      ///< verification threshold for one block
  int max_retries = 4;
  /// Per-block correction capacity (PR 9). 1 = the classic two-value dual
  /// checksum trailer, bit-for-bit. t > 1 ships 2t syndrome moments per
  /// block instead (payload overhead 2t complex values) and the receiver
  /// decodes up to t simultaneous corruptions via checksum::repair_errors.
  int max_errors = 1;
  /// Plan-cached duplicated node table for block_len
  /// (checksum::shared_syndrome_nodes / ParallelPlan::syndrome_nodes_block)
  /// enabling the SIMD syndrome kernels; nullptr falls back to the scalar
  /// on-the-fly nodes (identical values). Only read when max_errors > 1.
  const double* syndrome_nodes = nullptr;
  /// Six-step phase index (1..3 for the three transposes); the modeled
  /// fault knobs (NetworkModel::fail_rank/fail_phase) key off it. 0 = not
  /// part of a phased run, rank-failure knob never fires.
  int phase = 0;

  /// Optional processing applied to every received (and the resident)
  /// block after verification: the hook the parallel FFT uses to fuse
  /// twiddle multiplication and checksum generation into the reception
  /// pipeline, where overlap can hide it.
  std::function<void(std::size_t src_rank, cplx* block, std::size_t len)>
      on_block;
};

/// Outcome counters.
struct TransposeStats {
  std::size_t comm_errors_detected = 0;
  std::size_t comm_errors_corrected = 0;
  /// Corrections recovered by a multi-error decode fixing >= 2 elements of
  /// one block (counts elements, so a 2-burst adds 2). Subset-adjacent to
  /// comm_errors_corrected, which keeps counting blocks repaired.
  std::size_t comm_multi_corrected = 0;
  std::size_t bytes_sent = 0;
  /// Blocks received over the (simulated) link, resident block excluded.
  /// Also the counter the NetworkModel::corrupt_every campaign knob ticks
  /// against, so a rank's corruption pattern is a pure function of its
  /// message count — deterministic across host thread schedules.
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

namespace detail {

/// Receiver-side check of one transposed block against the trailer its
/// sender computed (dual sums, or 2t syndrome moments under a multi-error
/// budget): repairs what it locates into the comm counters of `stats` and
/// throws UncorrectableError when the damage is not localizable. Shared by
/// the reference and the engine-sharded paths.
void verify_block(cplx* block, std::size_t len, const abft::StoredSums& stored,
                  double eta, int max_retries, TransposeStats& stats);

}  // namespace detail

/// Executes the transpose on this rank. `local` holds nranks*block_len
/// elements; on return block q holds the data that was block `rank` on rank
/// q (verified, repaired and processed per the options). `tag_base`
/// separates concurrent transposes. Throws UncorrectableError when a block
/// fails verification beyond repair.
void block_transpose(RankCtx& ctx, cplx* local, std::size_t block_len,
                     const TransposeOptions& opts, TransposeStats& stats,
                     int tag_base);

}  // namespace ftfft::parallel
