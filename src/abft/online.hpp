// Online ABFT FFT (paper Algorithm 2 + sections 3.2 and 4).
//
// The transform is computed through its top-level Cooley-Tukey split
// N = m*k: k m-point sub-FFTs (input stride k), a DMR-protected twiddle
// stage, and m k-point sub-FFTs (column stride m). Each sub-FFT carries its
// own checksum, so an error is detected within O(sqrt(N) log sqrt(N)) work
// of where it happened and repaired by re-executing only that sub-FFT —
// this is the paper's core contribution.
//
// With opts.memory_ft the section-3.2 hierarchy is layered on top: dual
// checksums over the input (slot per sub-FFT), incrementally generated dual
// checksums and energies over the intermediate columns, and a postponed
// final verification of the output. opts.optimized selects the section-4
// hierarchy as a whole (combined checksums, verification postponing,
// incremental generation, contiguous buffering) or the paper's naive one.
// Column thresholds scale with the verified first-layer outputs, and the
// postponed recovery recomputes from a column-major backup the second layer
// writes.
#pragma once

#include <cstddef>

#include "abft/options.hpp"
#include "common/complex.hpp"

namespace ftfft::abft {

class ProtectionPlan;

/// Protected out-of-place forward DFT under Mode::kOnline semantics.
///
/// Requirements: n composite with a split n = m*k, m,k >= 2, and neither
/// factor divisible by 3 (always true for powers of two). `in` is non-const:
/// memory-fault corrections repair it, and when
/// opts.memory_ft && opts.optimized && opts.backup_in_input the
/// intermediate result is parked in it column-major (element i of column c
/// at in[c*k + i]; the paper's zero-extra-memory backup), destroying the
/// original contents.
/// Throws UncorrectableError when the single-fault-per-unit model is
/// violated beyond repair.
void online_transform(cplx* in, cplx* out, std::size_t n, const Options& opts,
                      Stats& stats);

/// Same transform against a pre-resolved plan (Scheme::kOnline). This is
/// the batch hot path: the engine resolves the plan once and every lane
/// skips the per-call setup entirely.
void online_transform(cplx* in, cplx* out, const ProtectionPlan& plan,
                      const Options& opts, Stats& stats);

}  // namespace ftfft::abft
