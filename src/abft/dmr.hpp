// Duplicated-execution (DMR) twiddle multiplication with majority vote.
//
// The twiddle stage between the two ABFT layers cannot be checksummed (an
// error there corrupts the *input* of the second layer before its checksum
// exists), so the paper protects it with DMR: compute twice, compare, and on
// mismatch compute a third time and take the majority (section 3.1).
//
// Twiddles come from cached tables, not a recurrence. With
// s = ceil(ceil(log2 n) / 2), every exponent j < n splits as
//   omega_n^j = hi[j >> s] * lo[j & (2^s - 1)],
//   hi[a] = omega_n^(a << s),  lo[b] = omega_n^b,
// so two ~sqrt(n)-entry tables cover any n (entries from
// simd::twiddle_table_entry, extended precision rounded once; every table
// twiddle at n = 2^20 is within 1e-15 of omega()). TwiddleTables holds that
// pair twice, in separate allocations: the first DMR evaluation reads pair
// 0, the second pair 1, so the two never read the same table word and one
// corrupted entry cannot make both copies agree on a wrong value. The
// vote's third evaluation recomputes the two entries — the same formula,
// table-free — so it is bitwise equal to a clean lookup. All products are
// non-contracted schoolbook multiplies (simd::FftKernels::dmr_twiddle), so
// results are bitwise identical across SIMD backends.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "checksum/dot.hpp"
#include "common/aligned.hpp"
#include "common/complex.hpp"
#include "common/seal.hpp"
#include "fault/injector.hpp"
#include "simd/kernels.hpp"

namespace ftfft::abft {

/// The two table pairs of one n, built once (each pair evaluated
/// separately and cross-checked, voting a third build on disagreement)
/// and cached process-wide; plans that run twiddle stages hold a handle.
class TwiddleTables {
 public:
  /// Direct (uncached) build. Prefer get().
  explicit TwiddleTables(std::size_t n);

  /// Cached tables for n, LRU-bounded and sealed through the shared
  /// PlanRegistry ("twiddle-tables" in plan_cache_stats()). Thread-safe.
  static std::shared_ptr<const TwiddleTables> get(std::size_t n);

  [[nodiscard]] std::size_t n() const noexcept { return n_; }
  [[nodiscard]] unsigned shift() const noexcept { return shift_; }
  [[nodiscard]] simd::TwiddleTableView view() const noexcept {
    return {{hi_[0].data(), hi_[1].data()},
            {lo_[0].data(), lo_[1].data()},
            shift_,
            n_};
  }

  /// omega_n^j (j < n) from table pair `copy` (0 or 1).
  [[nodiscard]] cplx twiddle(std::size_t j, int copy) const;
  /// The table-free third evaluation of omega_n^j (bitwise equal to a
  /// clean twiddle(j, c)).
  [[nodiscard]] cplx exact_twiddle(std::size_t j) const;

  /// Appends the four tables (pair 0 hi, lo, then pair 1) to `out`.
  void collect_state(StateSpans& out) const {
    for (int c = 0; c < 2; ++c) {
      out.add_vec(hi_[c]);
      out.add_vec(lo_[c]);
    }
  }

 private:
  std::size_t n_;
  unsigned shift_;
  AlignedVector<cplx> hi_[2];
  AlignedVector<cplx> lo_[2];
};

/// Computes dst[i] = src[i * stride] * omega_n^(j0 + i * factor_step) for
/// i in [0, len) twice from independent table pairs, votes on mismatch.
/// Requires j0 + (len - 1) * factor_step < n (std::invalid_argument
/// otherwise).
/// src and dst must not overlap. Resolves the cached tables for n per call;
/// hot loops hold the tables and use the overload below.
///
/// `unit` tags the injector hook (phase kTwiddleDmrCopy fires on the first
/// redundant copy). Returns the number of elementwise mismatches repaired by
/// the vote; 0 on a fault-free run.
std::size_t dmr_twiddle_multiply(const cplx* src, std::size_t stride,
                                 cplx* dst, std::size_t len, std::size_t n,
                                 std::size_t factor_step, std::size_t unit,
                                 fault::Injector* injector,
                                 std::size_t j0 = 0);

/// Same over held tables (n = tables.n()). When `weights` is non-null
/// (then `se` must be too), *se receives the weighted sum and the energy
/// of the verified outputs, bit-identical to
/// checksum::weighted_sum_energy(weights, dst, len): the second layer's
/// computational checksum rides the twiddle pass. A non-null `perm` (an
/// involution, len even) stores output i at dst[perm[i]], so the pass
/// writes the next sub-FFT's input in bit-reversed order; the hook, the
/// vote and the sums still see natural order.
std::size_t dmr_twiddle_multiply(const TwiddleTables& tables,
                                 const cplx* src, std::size_t stride,
                                 cplx* dst, std::size_t len,
                                 std::size_t factor_step, std::size_t j0,
                                 std::size_t unit, fault::Injector* injector,
                                 const cplx* weights = nullptr,
                                 checksum::SumEnergy* se = nullptr,
                                 const std::uint32_t* perm = nullptr);

/// Unprotected single pass of the same kernel: data[i] *=
/// omega_n^(j0 + i * step) in place, bitwise equal to the DMR output.
void twiddle_multiply(const TwiddleTables& tables, cplx* data,
                      std::size_t len, std::size_t step, std::size_t j0);

}  // namespace ftfft::abft
