#include "abft/offline.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "abft/dmr.hpp"
#include "abft/protection_plan.hpp"
#include "abft/unit_check.hpp"
#include "checksum/dot.hpp"
#include "checksum/multi_error.hpp"
#include "common/error.hpp"
#include "common/scratch.hpp"
#include "fft/fft.hpp"

namespace ftfft::abft {

using fault::Phase;

namespace {

// Removes repaired input errors from a spectrum computed over the corrupted
// input. The DFT is linear, so an error delta added to x_j added
// delta * omega_n^(jk) to every out[k]. Writing k = a*L + b with L the low
// table length of TwiddleTables, omega_n^(jk) = omega_n^(jaL) *
// omega_n^(jb): one row v_b = delta * omega_n^(jb) per error, then one
// complex multiply per output element, all twiddles from the cached tables.
void subtract_input_errors(cplx* out, std::size_t n,
                           const checksum::Corrections& fix) {
  const auto tables = TwiddleTables::get(n);
  const std::size_t len = std::min(n, std::size_t{1} << tables->shift());
  scratch::Frame frame;
  cplx* row = frame.take<cplx>(len).data();
  for (int e = 0; e < fix.count; ++e) {
    const std::size_t j = fix.index[e];
    std::size_t jb = 0;  // (j * b) mod n
    for (std::size_t b = 0; b < len; ++b) {
      row[b] = cmul(fix.delta[e], tables->twiddle(jb, 0));
      jb += j;
      if (jb >= n) jb -= n;
    }
    const std::size_t step = (j * len) % n;
    std::size_t jal = 0;  // (j * a * L) mod n
    for (std::size_t k0 = 0; k0 < n; k0 += len) {
      const cplx c = tables->twiddle(jal, 0);
      const std::size_t cnt = std::min(len, n - k0);
      cplx* __restrict o = out + k0;
      const cplx* __restrict v = row;
      for (std::size_t b = 0; b < cnt; ++b) o[b] -= cmul(c, v[b]);
      jal += step;
      if (jal >= n) jal -= n;
    }
  }
}

}  // namespace

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

  cplx ccg;  // (rA) x — the computational reference value
  // Stored memory checksums (memory_ft only): the duals and, for t > 1,
  // the 2t moments in syn_ref.
  StoredSums mem_ref{{}, nullptr, plan.max_errors(), plan.syndrome_nodes_m()};
  checksum::SyndromeSet syn_ref;
  double energy;
  const cplx* mem_weights = nullptr;  // nullptr = classic all-ones r1/r2
  if (opts.memory_ft) {
    if (opts.optimized) {
      // Section 4.1: r1' = rA, r2'_j = j (rA)_j; the plain component doubles
      // as the CCG product.
      const auto d = checksum::dual_weighted_sum_energy(ra, in, n);
      mem_ref.dual = d.sums;
      ccg = d.sums.plain;
      energy = d.energy;
      mem_weights = ra;
    } else {
      // Classic r1 = ones, r2 = index, plus a separate CCG pass — the 14N
      // generation cost the combined scheme reduces to 10N.
      const auto d = checksum::dual_weighted_sum_energy(nullptr, in, n);
      mem_ref.dual = d.sums;
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
    mem_ref.syn = &syn_ref;
  }

  const double eta =
      threshold(plan.eta_whole().comp, energy, n, opts.eta_override);
  const double eta_mem =
      threshold(plan.eta_whole().mem, energy, n, opts.eta_override);
  stats.eta_m = eta;
  stats.eta_mem = eta_mem;

  if (inj != nullptr) inj->apply(Phase::kInputAfterChecksum, 0, in, n);

  // --- Compute + verify loop --------------------------------------------
  // A computational error costs a full re-execution of the transform. A
  // repaired input memory error need not: its (index, delta) pairs update
  // the spectrum already computed, in O(n) per error, and the next attempt
  // only re-checks it. The update is taken when the repaired errors are
  // small against the input (sum |delta| <= ||x||_2), so the corrupted
  // input at most doubled the transform's norm-wise error bound; larger
  // ones (an exponent-bit flip) and an update that fails its re-check fall
  // back to re-execution.
  const double update_gate = std::sqrt(energy);
  bool updated = false;  // out holds an updated spectrum awaiting its check
  fft::Fft engine(n);
  verify_with_retry(
      stats, &Stats::full_restarts, opts.max_retries,
      "offline ABFT: verification failed after max_retries; "
      "single-fault model violated or threshold too tight",
      [&] {
        if (!std::exchange(updated, false)) {
          engine.execute(in, out);
          if (inj != nullptr) {
            inj->apply(Phase::kWholeFftOutput, 0, out, n);
            inj->apply(Phase::kIntermediate, 0, out, n);
            inj->apply(Phase::kFinalOutput, 0, out, n);
          }
        }
        return omega3_check(out, n, ccg, eta);
      },
      [&] {
        // Discriminate input memory corruption from a computational error:
        // recompute the stored input checksums, localize and iteratively
        // repair. Combined checksums carry the O(n)-magnitude (rA) weights,
        // so their comparison threshold is the computational eta.
        //
        // The duals are the t = 1 moment set; with a multi-error budget
        // (t > 1) the 2t-moment syndromes are decoded instead. Either way
        // the decoder accepts a hypothesis only when it reproduces every
        // stored moment, so a one-element write that balances the plain
        // sum of a burst but not its index-weighted sum is refused (with
        // combined checksums the CCV would pass it by construction).
        checksum::Corrections fix;
        if (!opts.memory_ft ||
            !repair_region(
                mem_ref, in, 1, mem_weights, n,
                opts.optimized ? eta : eta_mem, RepairTally::of(stats, false),
                "offline ABFT: input memory error detected but could not "
                "be localized",
                /*flagged=*/false, &fix)) {
          return false;
        }
        double mass = 0.0;
        for (int e = 0; e < fix.count; ++e) mass += std::abs(fix.delta[e]);
        if (fix.complete && mass <= update_gate) {
          subtract_input_errors(out, n, fix);
          updated = true;
          // The retry verify_with_retry just counted re-checks the updated
          // spectrum; nothing is re-executed.
          --stats.full_restarts;
        }
        return true;
      });
}

void offline_transform(cplx* in, cplx* out, std::size_t n,
                       const Options& opts, Stats& stats) {
  detail::require(n >= 1, "offline_transform: n must be >= 1");
  const auto plan = ProtectionPlan::get(n, Scheme::kOffline, opts);
  offline_transform(in, out, *plan, opts, stats);
}

}  // namespace ftfft::abft
