#include "abft/unit_check.hpp"

#include "checksum/memory_checksum.hpp"
#include "common/error.hpp"

namespace ftfft::abft {

void uncorrectable(const char* what) { throw UncorrectableError(what); }

bool repair_region(const StoredSums& stored, cplx* data, std::size_t stride,
                   const cplx* w, std::size_t n, double eta, int max_iters,
                   const RepairTally& tally, const char* what, bool flagged,
                   checksum::Corrections* applied) {
  bool mismatch, corrected;
  int errors = 1;
  if (stored.syn != nullptr) {
    const auto rep =
        checksum::repair_errors(*stored.syn, data, stride, w, n, eta,
                                stored.max_errors, /*max_iters=*/6,
                                stored.nodes);
    mismatch = rep.mismatch;
    corrected = rep.corrected;
    errors = rep.errors;
    if (applied != nullptr) *applied = rep.applied;
  } else {
    const auto rep = checksum::repair_single_error(stored.dual, data, stride,
                                                   w, n, eta, max_iters);
    mismatch = rep.mismatch;
    corrected = rep.corrected;
    if (applied != nullptr) *applied = rep.applied;
  }
  if (tally.verifications != nullptr) ++*tally.verifications;
  if (!mismatch && !flagged) return false;
  ++tally.detected;
  if (!corrected) uncorrectable(what);
  ++tally.corrected;
  if (errors >= 2) tally.multi += static_cast<std::size_t>(errors);
  return true;
}

}  // namespace ftfft::abft
