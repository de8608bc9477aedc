#include "abft/dmr.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/math_util.hpp"
#include "common/plan_registry.hpp"
#include "simd/dispatch.hpp"

namespace ftfft::abft {
namespace {

// entry a = omega_n^(a << shift), a in [0, len).
std::vector<cplx> build_table(std::size_t n, std::size_t len,
                              unsigned shift) {
  std::vector<cplx> t(len);
  for (std::size_t a = 0; a < len; ++a) {
    t[a] = simd::twiddle_table_entry(n,
                                     static_cast<std::uint64_t>(a) << shift);
  }
  return t;
}

// Builds one table into both pairs, separately, and cross-checks them: a
// fault in either build is outvoted by a third (the tables feed every later
// DMR evaluation, so they get the rA vector's build-time DMR).
void build_dmr(std::size_t n, std::size_t len, unsigned shift,
               std::vector<cplx>& a, std::vector<cplx>& b) {
  a = build_table(n, len, shift);
  b = build_table(n, len, shift);
  if (a == b) return;
  const auto third = build_table(n, len, shift);
  for (std::size_t i = 0; i < len; ++i) {
    if (a[i] != b[i]) a[i] = b[i] = (b[i] == third[i]) ? b[i] : third[i];
  }
}

PlanRegistry<std::size_t, TwiddleTables> tables_cache("twiddle-tables");

struct InjectorHook {
  fault::Injector* inj;
  std::size_t unit;
  static void call(void* self, cplx* data, std::size_t n) {
    auto* h = static_cast<InjectorHook*>(self);
    h->inj->apply(fault::Phase::kTwiddleDmrCopy, h->unit, data, n);
  }
};

}  // namespace

TwiddleTables::TwiddleTables(std::size_t n) : n_(n) {
  ftfft::detail::require(n >= 1, "TwiddleTables: n must be >= 1");
  const unsigned bits = log2_floor(n) + (is_pow2(n) ? 0 : 1);
  shift_ = (bits + 1) / 2;
  const std::size_t lo_len = std::min(n, std::size_t{1} << shift_);
  const std::size_t hi_len = ((n - 1) >> shift_) + 1;
  build_dmr(n, lo_len, 0, lo_[0], lo_[1]);
  build_dmr(n, hi_len, shift_, hi_[0], hi_[1]);
}

std::shared_ptr<const TwiddleTables> TwiddleTables::get(std::size_t n) {
  return tables_cache.get_or_build(
      n, [&] { return std::make_shared<const TwiddleTables>(n); });
}

cplx TwiddleTables::twiddle(std::size_t j, int copy) const {
  return simd::scalar_table_twiddle(view(), copy, j);
}

cplx TwiddleTables::exact_twiddle(std::size_t j) const {
  return simd::scalar_exact_twiddle(view(), j);
}

std::size_t dmr_twiddle_multiply(const cplx* src, std::size_t stride,
                                 cplx* dst, std::size_t len, std::size_t n,
                                 std::size_t factor_step, std::size_t unit,
                                 fault::Injector* injector, std::size_t j0) {
  const auto tables = TwiddleTables::get(n);
  return dmr_twiddle_multiply(*tables, src, stride, dst, len, factor_step, j0,
                              unit, injector);
}

std::size_t dmr_twiddle_multiply(const TwiddleTables& tables,
                                 const cplx* src, std::size_t stride,
                                 cplx* dst, std::size_t len,
                                 std::size_t factor_step, std::size_t j0,
                                 std::size_t unit, fault::Injector* injector,
                                 const cplx* weights,
                                 checksum::SumEnergy* se) {
  ftfft::detail::require(
      len == 0 || j0 + (len - 1) * factor_step < tables.n(),
      "dmr_twiddle_multiply: exponent j0 + (len-1)*step >= n");
  // The hook only exists for injection: without an armed kTwiddleDmrCopy
  // fault both copies stay in registers (one pass instead of two).
  InjectorHook hook{injector, unit};
  const bool strike =
      injector != nullptr && injector->pending(fault::Phase::kTwiddleDmrCopy);
  return simd::fft_kernels().dmr_twiddle(
      src, stride, dst, len, j0, factor_step, tables.view(), true,
      strike ? &InjectorHook::call : nullptr, &hook, weights, se);
}

void twiddle_multiply(const TwiddleTables& tables, cplx* data,
                      std::size_t len, std::size_t step, std::size_t j0) {
  ftfft::detail::require(len == 0 || j0 + (len - 1) * step < tables.n(),
                         "twiddle_multiply: exponent j0 + (len-1)*step >= n");
  simd::fft_kernels().dmr_twiddle(data, 1, data, len, j0, step,
                                  tables.view(), false, nullptr, nullptr,
                                  nullptr, nullptr);
}

}  // namespace ftfft::abft
