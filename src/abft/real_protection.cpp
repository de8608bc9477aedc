#include "abft/real_protection.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>

#include "abft/protected_fft.hpp"
#include "abft/protection_plan.hpp"
#include "abft/unit_check.hpp"
#include "checksum/dot.hpp"
#include "common/error.hpp"
#include "common/math_util.hpp"
#include "common/plan_registry.hpp"
#include "common/scratch.hpp"
#include "fault/injector.hpp"
#include "roundoff/model.hpp"
#include "simd/dispatch.hpp"

namespace ftfft::abft {
namespace {

using fault::Phase;

PlanRegistry<std::size_t, RealProtectionPlan> real_plan_cache(
    "real-protection-plan");

/// Effective options for the packed nc-point transform: the two-layer
/// online scheme needs nc >= 4 (and composite), so the two tiny packed
/// sizes run under the offline whole-transform checksum instead — same
/// detection guarantee, and at nc <= 2 "whole transform" is one butterfly.
Options packed_options(std::size_t nc, const Options& opts) {
  Options o = opts;
  if (o.mode == Mode::kOnline && nc < 4) o.mode = Mode::kOffline;
  return o;
}

/// The packed transform is a no-op at nc == 1 (one-point FFT); everything
/// larger routes through the protected executors.
void packed_protected_forward(cplx* in, cplx* out, std::size_t nc,
                              const Options& opts, Stats& stats,
                              const ProtectionPlan* cplan) {
  if (nc > 1) {
    protected_transform(in, out, nc, packed_options(nc, opts), stats, cplan);
  } else {
    out[0] = in[0];
  }
}

void resolve_real_plan(std::size_t n, const RealProtectionPlan*& plan,
                       std::shared_ptr<const RealProtectionPlan>& owned) {
  if (plan == nullptr) {
    owned = RealProtectionPlan::get(n);
    plan = owned.get();
  } else {
    detail::require(plan->n() == n,
                    "protected real transform: RealProtectionPlan was "
                    "resolved for a different size");
  }
}

}  // namespace

RealProtectionPlan::RealProtectionPlan(std::size_t n) : n_(n), nc_(n / 2) {
  rplan_ = fft::RealFftPlan::get(n);  // validates n (power of two >= 2)

  // Pullback of the omega3 output dot (c_k = omega3_pow(k)) through the
  // split map (see header):
  //   a_0 = c_0/2 (1-i) + c_nc/2 (1+i),   a_j = c_j/2 (1 - i W^j)
  //   g_0 = c_0/2 (1+i) + c_nc/2 (1-i),   g_j = c_{nc-j}/2 (1 + i W^{nc-j})
  const cplx c0 = omega3_pow(0);
  const cplx cn = omega3_pow(nc_);
  a_.resize(nc_);
  g_.resize(nc_);
  a_[0] = cmul(c0, cplx{0.5, -0.5}) + cmul(cn, cplx{0.5, 0.5});
  g_[0] = cmul(c0, cplx{0.5, 0.5}) + cmul(cn, cplx{0.5, -0.5});
  for (std::size_t j = 1; j < nc_; ++j) {
    const cplx cj = omega3_pow(j);
    const cplx iw = mul_i(omega(n_, j));
    a_[j] = cmul(cj, 0.5 * (cplx{1.0, 0.0} - iw));
    g_[nc_ - j] = cmul(cj, 0.5 * (cplx{1.0, 0.0} + iw));
  }
  gc_.resize(nc_);
  ac_.resize(nc_);
  for (std::size_t j = 0; j < nc_; ++j) {
    gc_[j] = std::conj(g_[j]);
    ac_[j] = std::conj(a_[j]);
  }
  eta_coeff_ = roundoff::practical_eta_real_coeff(nc_);
}

std::shared_ptr<const RealProtectionPlan> RealProtectionPlan::get(
    std::size_t n) {
  return real_plan_cache.get_or_build(
      n, [n] { return std::make_shared<const RealProtectionPlan>(n); });
}

std::shared_ptr<const ProtectionPlan> resolve_real_packed_plan(
    std::size_t n, const Options& opts) {
  const std::size_t nc = n / 2;
  if (nc <= 1 || opts.mode == Mode::kNone) return nullptr;
  return resolve_protection_plan(nc, packed_options(nc, opts), false);
}

void protected_r2c(double* in, cplx* out, std::size_t n, const Options& opts,
                   Stats& stats, const RealProtectionPlan* plan,
                   const ProtectionPlan* cplan) {
  if (opts.mode == Mode::kNone) {
    if (plan != nullptr) {
      plan->real_plan().r2c(in, out);
    } else {
      fft::r2c(in, n, out);
    }
    return;
  }
  std::shared_ptr<const RealProtectionPlan> owned;
  resolve_real_plan(n, plan, owned);
  const fft::RealFftPlan& rp = plan->real_plan();
  const std::size_t nc = n / 2;

  // The packed input is the n reals reinterpreted — staged into scratch so
  // the inner transform's repair machinery never touches the caller's
  // signal, and so a post-pass restart can re-pack from pristine data.
  scratch::Frame frame;
  const std::span<cplx> zin = frame.take<cplx>(nc);
  cplx* zbuf = out;  // packed spectrum staged in out[0..nc)
  double eta = -1.0;
  verify_with_retry(
      stats, &Stats::full_restarts, opts.max_retries,
      "real ABFT: r2c post-pass checksum mismatch persisted across retries",
      [&] {
        std::memcpy(static_cast<void*>(zin.data()), in, n * sizeof(double));
        packed_protected_forward(zin.data(), zbuf, nc, opts, stats, cplan);

        // Pullback reference over the (still clean) packed spectrum; the
        // same sweep yields the energy the threshold scale comes from.
        const auto se =
            checksum::weighted_sum_energy(plan->pullback_fwd_a(), zbuf, nc);
        const cplx ref = se.sum + std::conj(checksum::weighted_sum(
                                      plan->pullback_fwd_gc(), zbuf, nc));
        if (eta < 0.0) {
          eta = threshold(plan->eta_coeff(), se.energy, nc, opts.eta_override);
          stats.eta_real = std::max(stats.eta_real, eta);
        }
        // The hook models a fault while the finalize sweep reads the packed
        // spectrum: the corruption propagates linearly into the outputs, so
        // the verify against the independently derived pullback catches it.
        if (opts.injector != nullptr) {
          opts.injector->apply(Phase::kRealPostPass, 0, zbuf, nc);
        }
        simd::fft_kernels().r2c_finalize(out, zbuf, nc, rp.quarter_twiddles());
        return omega3_check(out, nc + 1, ref, eta);
      });
}

void protected_c2r(cplx* in, double* out, std::size_t n, const Options& opts,
                   Stats& stats, const RealProtectionPlan* plan,
                   const ProtectionPlan* cplan) {
  if (opts.mode == Mode::kNone) {
    if (plan != nullptr) {
      plan->real_plan().c2r(in, out);
    } else {
      fft::c2r(in, n, out);
    }
    return;
  }
  std::shared_ptr<const RealProtectionPlan> owned;
  resolve_real_plan(n, plan, owned);
  const fft::RealFftPlan& rp = plan->real_plan();
  const std::size_t nc = n / 2;

  // Unsplit under guard: the omega3 dot over the caller's half-spectrum is
  // the trusted side; the pullback over the prepare output must match it.
  scratch::Frame frame;
  const std::span<cplx> buf = frame.take<cplx>(nc);  // conj(Z), packed
  double eta = -1.0;
  verify_with_retry(
      stats, &Stats::full_restarts, opts.max_retries,
      "real ABFT: c2r post-pass checksum mismatch persisted across retries",
      [&] {
        simd::fft_kernels().c2r_prepare(buf.data(), in, nc,
                                        rp.quarter_twiddles(),
                                        /*conjugate=*/true);
        cplx s_in = checksum::omega3_weighted_sum(in, nc + 1);
        // The DC/Nyquist bins of a real signal's spectrum are structurally
        // real and the unsplit pass ignores their imaginary parts; mask
        // them out of the trusted dot too so a caller-supplied nonzero
        // imaginary component is ignored, not misdiagnosed as a fault.
        s_in -= cmul(omega3_pow(0), cplx{0.0, in[0].imag()}) +
                cmul(omega3_pow(nc), cplx{0.0, in[nc].imag()});
        if (eta < 0.0) {
          // Threshold scale from the still-clean prepare output (the
          // injector hook has not fired yet), so a corruption under test
          // can never inflate its own detection threshold. First attempt
          // only.
          eta = threshold(plan->eta_coeff(), checksum::energy(buf.data(), nc),
                          nc, opts.eta_override);
          stats.eta_real = std::max(stats.eta_real, eta);
        }
        if (opts.injector != nullptr) {
          opts.injector->apply(Phase::kRealPostPass, 0, buf.data(), nc);
        }
        const cplx ref =
            std::conj(checksum::weighted_sum(plan->pullback_inv_ac(),
                                             buf.data(), nc)) +
            checksum::weighted_sum(plan->pullback_inv_g(), buf.data(), nc);
        return Check{std::abs(s_in - ref), eta};
      });

  // Packed inverse as a protected forward on the conjugated spectrum
  // (DFT(conj(x)) = conj(IDFT(x)) up to ordering), then one exact sweep:
  // conjugate back and apply the full 1/nc normalization (a power of two,
  // so the scale is round-off free).
  cplx* z = reinterpret_cast<cplx*>(out);
  packed_protected_forward(buf.data(), z, nc, opts, stats, cplan);
  const double inv = 1.0 / static_cast<double>(nc);
  for (std::size_t j = 0; j < nc; ++j) {
    z[j] = cplx{z[j].real() * inv, -z[j].imag() * inv};
  }
}

}  // namespace ftfft::abft
