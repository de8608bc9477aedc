#include "abft/offline.hpp"

#include <cmath>
#include <vector>

#include "abft/protection_plan.hpp"
#include "checksum/dot.hpp"
#include "checksum/memory_checksum.hpp"
#include "checksum/multi_error.hpp"
#include "checksum/weights.hpp"
#include "common/error.hpp"
#include "fft/fft.hpp"
#include "roundoff/model.hpp"

namespace ftfft::abft {

using checksum::DualSum;
using fault::Phase;

void offline_transform(cplx* in, cplx* out, const ProtectionPlan& plan,
                       const Options& opts, Stats& stats) {
  detail::require(plan.scheme() == Scheme::kOffline,
                  "offline_transform: plan was built for another scheme");
  const std::size_t n = plan.n();
  fault::Injector* inj = opts.injector;

  if (inj != nullptr) inj->apply(Phase::kInputBeforeChecksum, 0, in, n);

  // --- Checksum generation ---------------------------------------------
  // The (rA) vector and the threshold coefficients live in the shared
  // plan; only the input-dependent sums are computed per call.
  const cplx* ra = plan.weights_m();

  cplx ccg;          // (rA) x — the computational reference value
  DualSum mem_ref;   // stored memory checksums (memory_ft only)
  checksum::SyndromeSet syn_ref;  // 2t moments (memory_ft and t > 1 only)
  double energy;
  const cplx* mem_weights = nullptr;  // nullptr = classic all-ones r1/r2
  if (opts.memory_ft) {
    if (opts.combined_checksums) {
      // Section 4.1: r1' = rA, r2'_j = j (rA)_j; the plain component doubles
      // as the CCG product.
      const auto d = checksum::dual_weighted_sum_energy(ra, in, n);
      mem_ref = d.sums;
      ccg = d.sums.plain;
      energy = d.energy;
      mem_weights = ra;
    } else {
      // Classic r1 = ones, r2 = index, plus a separate CCG pass — the 14N
      // generation cost the combined scheme reduces to 10N.
      const auto d = checksum::dual_weighted_sum_energy(nullptr, in, n);
      mem_ref = d.sums;
      energy = d.energy;
      ccg = checksum::weighted_sum(ra, in, n);
    }
  } else {
    const auto s = checksum::weighted_sum_energy(ra, in, n);
    ccg = s.sum;
    energy = s.energy;
  }
  if (opts.memory_ft && plan.syndrome_moments() > 0) {
    // Multi-error escalation (PR 9): 2t moment sums over the same weighted
    // input the dual checksums cover. Generated only when the plan was
    // resolved with max_correctable_errors > 1, so the default path pays
    // nothing.
    syn_ref = checksum::syndrome_sum(mem_weights, in, n, 1,
                                     plan.syndrome_moments(),
                                     plan.syndrome_nodes_m());
  }

  const double sigma0 =
      std::sqrt(energy / (2.0 * static_cast<double>(n)) + 1e-300);
  const double eta =
      opts.eta_override > 0.0
          ? opts.eta_override
          : roundoff::eta_from_coeff(plan.eta_whole().comp, sigma0);
  const double eta_mem =
      opts.eta_override > 0.0
          ? opts.eta_override
          : roundoff::eta_from_coeff(plan.eta_whole().mem, sigma0);
  stats.eta_m = eta;
  stats.eta_mem = eta_mem;

  if (inj != nullptr) inj->apply(Phase::kInputAfterChecksum, 0, in, n);

  // --- Compute + verify loop --------------------------------------------
  fft::Fft engine(n);
  for (int attempt = 0;; ++attempt) {
    engine.execute(in, out);
    if (inj != nullptr) {
      inj->apply(Phase::kWholeFftOutput, 0, out, n);
      inj->apply(Phase::kIntermediate, 0, out, n);
      inj->apply(Phase::kFinalOutput, 0, out, n);
    }
    const cplx rx = checksum::omega3_weighted_sum(out, n);
    ++stats.verifications;
    if (std::abs(rx - ccg) <= eta) return;  // verified

    if (attempt >= opts.max_retries) {
      throw UncorrectableError(
          "offline ABFT: verification failed after max_retries; "
          "single-fault model violated or threshold too tight");
    }

    if (opts.memory_ft) {
      // Discriminate input memory corruption from a computational error:
      // recompute the stored input checksums, localize and iteratively
      // repair. Combined checksums carry the O(n)-magnitude (rA) weights,
      // so their comparison threshold is the computational eta.
      const double eta_disc = opts.combined_checksums ? eta : eta_mem;
      bool mismatch, corrected;
      if (syn_ref.moments > 0) {
        // Multi-error budget (PR 9): decode the 2t-moment syndromes instead
        // of the dual-only repair. This is not just an escalation — the dual
        // checksums carry exactly two values, so a two-error burst whose
        // residual ratio lands near an integer can be "explained" by one
        // wrong-index write that the dual repair accepts (and, with combined
        // checksums, the CCV then passes by construction). The syndrome
        // decoder checks every hypothesis against all 2t moments, so a
        // single-error fix of a multi-error burst is rejected and the burst
        // decodes at its true count.
        const auto mrep = checksum::repair_errors(
            syn_ref, in, 1, mem_weights, n, eta_disc, plan.max_errors(),
            /*max_iters=*/6, plan.syndrome_nodes_m());
        mismatch = mrep.mismatch;
        corrected = mrep.corrected;
        if (mrep.corrected && mrep.errors >= 2) {
          stats.multi_errors_corrected +=
              static_cast<std::size_t>(mrep.errors);
        }
      } else {
        const auto rep = checksum::repair_single_error(
            mem_ref, in, 1, mem_weights, n, eta_disc, opts.max_retries);
        mismatch = rep.mismatch;
        corrected = rep.corrected;
      }
      if (mismatch) {
        ++stats.mem_errors_detected;
        if (!corrected) {
          throw UncorrectableError(
              "offline ABFT: input memory error detected but could not be "
              "localized");
        }
        ++stats.mem_errors_corrected;
      } else {
        ++stats.comp_errors_detected;
      }
    } else {
      ++stats.comp_errors_detected;
    }
    // Offline recovery is always a full re-execution of the transform.
    ++stats.full_restarts;
  }
}

void offline_transform(cplx* in, cplx* out, std::size_t n,
                       const Options& opts, Stats& stats) {
  detail::require(n >= 1, "offline_transform: n must be >= 1");
  const auto plan = ProtectionPlan::get(n, Scheme::kOffline, opts);
  offline_transform(in, out, *plan, opts, stats);
}

}  // namespace ftfft::abft
