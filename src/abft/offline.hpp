// Offline ABFT FFT (paper Algorithm 1, plus the memory-FT extension).
//
// One checksum relation protects the whole N-point transform: generate the
// input checksum (rA)x before computing, run the FFT, compare against the
// omega_3-weighted output sum. Detection therefore happens only after the
// full transform, and a computational error costs a complete re-execution —
// the inefficiency the online scheme (online.hpp) removes.
//
// An input memory error need not cost one. Unlike the paper, which
// re-executes on every failed check, a repair that located its errors
// (j, delta) subtracts delta * omega_n^(jk) from the computed spectrum in
// O(N) per error and re-checks it, without re-running the FFT
// (Stats::full_restarts stays 0). This holds while sum |delta| <= ||x||_2;
// larger errors and an update that fails its re-check are re-executed.
#pragma once

#include <cstddef>

#include "abft/options.hpp"
#include "common/complex.hpp"

namespace ftfft::abft {

class ProtectionPlan;

/// Protected out-of-place forward DFT under Mode::kOffline semantics.
/// `in` is non-const because memory-fault correction repairs the caller's
/// array in place (and the fault injector corrupts it); fault-free runs
/// leave it unmodified. Throws UncorrectableError when verification keeps
/// failing beyond opts.max_retries (single-fault model violated).
void offline_transform(cplx* in, cplx* out, std::size_t n,
                       const Options& opts, Stats& stats);

/// Same transform against a pre-resolved plan (Scheme::kOffline).
void offline_transform(cplx* in, cplx* out, const ProtectionPlan& plan,
                       const Options& opts, Stats& stats);

}  // namespace ftfft::abft
