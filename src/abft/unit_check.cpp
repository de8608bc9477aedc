#include "abft/unit_check.hpp"

#include <algorithm>
#include <cassert>

#include "common/error.hpp"
#include "fft/fft.hpp"

namespace ftfft::abft {

void uncorrectable(const char* what) { throw UncorrectableError(what); }

bool repair_region(const StoredSums& stored, cplx* data, std::size_t stride,
                   const cplx* w, std::size_t n, double eta,
                   const RepairTally& tally, const char* what, bool flagged,
                   checksum::Corrections* applied) {
  const checksum::SyndromeSet dual = checksum::dual_moments(stored.dual, n);
  const auto rep = checksum::repair_errors(
      stored.syn != nullptr ? *stored.syn : dual, data, stride, w, n, eta,
      stored.max_errors, checksum::kRepairRounds, stored.nodes);
  if (applied != nullptr) *applied = rep.applied;
  if (tally.verifications != nullptr) ++*tally.verifications;
  if (!rep.mismatch && !flagged) return false;
  ++tally.detected;
  if (!rep.corrected) uncorrectable(what);
  ++tally.corrected;
  if (rep.errors >= 2) tally.multi += static_cast<std::size_t>(rep.errors);
  return true;
}

void run_sub_fft(const SubFft& unit, int max_retries, Stats& stats) {
  const std::size_t n = unit.engine.size();
  const SlotRepair& rep = unit.repair;
  assert(unit.perm == nullptr ||
         (unit.perm == unit.engine.bit_reversal() && unit.stride == 1 &&
          rep.data != unit.in));
  const auto repair = [&] {
    if (rep.data == nullptr) return false;
    if (rep.record_eta) stats.eta_mem = std::max(stats.eta_mem, rep.eta);
    if (!repair_region(rep.stored, rep.data, rep.stride, rep.w, n, rep.eta,
                       RepairTally::of(stats, rep.count_check), rep.what)) {
      return false;
    }
    if (unit.perm != nullptr) {  // refresh the staged copy, permuted
      for (std::size_t t = 0; t < n; ++t) {
        unit.in[unit.perm[t]] = rep.data[t * rep.stride];
      }
    } else if (rep.data != unit.in) {  // refresh the staged copy
      for (std::size_t t = 0; t < n; ++t) {
        unit.in[t * unit.stride] = rep.data[t * rep.stride];
      }
    }
    return true;
  };
  const auto take_ccg = [&] {
    if (unit.ccg_w == nullptr) return unit.ccg;
    if (unit.perm != nullptr) {
      return checksum::weighted_sum_energy_at(unit.ccg_w, unit.in, unit.perm,
                                              n)
          .sum;
    }
    return checksum::weighted_sum(unit.ccg_w, unit.in, n, unit.stride);
  };

  if (rep.before_run) repair();
  cplx ccg = take_ccg();
  stats.*unit.eta_stat = std::max(stats.*unit.eta_stat, unit.eta);
  verify_with_retry(
      stats, &Stats::sub_fft_retries, max_retries, unit.what,
      [&] {
        if (unit.perm != nullptr) {
          unit.engine.execute_bit_reversed(unit.in, unit.out);
        } else if (unit.stride == 1) {
          unit.engine.execute(unit.in, unit.out);
        } else {
          unit.engine.execute_strided(unit.in, unit.stride, unit.out, 1);
        }
        if (unit.inj != nullptr) {
          unit.inj->apply(unit.phase, unit.index, unit.out, n);
        }
        return omega3_check(unit.out, n, ccg, unit.eta);
      },
      [&] {
        if (!repair()) return false;
        ccg = take_ccg();
        return true;
      });
}

}  // namespace ftfft::abft
