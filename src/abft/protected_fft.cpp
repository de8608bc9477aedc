#include "abft/protected_fft.hpp"

#include "abft/inplace.hpp"
#include "abft/offline.hpp"
#include "abft/online.hpp"
#include "abft/protection_plan.hpp"
#include "common/error.hpp"
#include "fft/fft.hpp"

namespace ftfft::abft {
namespace {

// A plan resolved for another size would make the run read plan.n()
// elements out of n-sized buffers; refuse before any work starts.
void require_plan_size(const ProtectionPlan* plan, std::size_t n) {
  detail::require(plan == nullptr || plan->n() == n,
                  "protected transform: ProtectionPlan was resolved for a "
                  "different size");
}

}  // namespace

void protected_transform(cplx* in, cplx* out, std::size_t n,
                         const Options& opts, Stats& stats,
                         const ProtectionPlan* plan) {
  require_plan_size(plan, n);
  if (opts.mode != Mode::kNone &&
      detail::inject_plan_state(n, opts, /*inplace=*/false)) {
    // A plan-state fault just landed in the cached metadata. Drop any
    // pre-resolved handle (it may point at the poisoned bytes) and let the
    // dispatch below re-resolve through the verifying registry, which
    // detects the seal mismatch, evicts the entry and rebuilds it.
    plan = nullptr;
  }
  switch (opts.mode) {
    case Mode::kNone: {
      fft::Fft engine(n);
      engine.execute(in, out);
      return;
    }
    case Mode::kOffline:
      if (plan != nullptr) {
        offline_transform(in, out, *plan, opts, stats);
      } else {
        offline_transform(in, out, n, opts, stats);
      }
      return;
    case Mode::kOnline:
      if (plan != nullptr) {
        online_transform(in, out, *plan, opts, stats);
      } else {
        online_transform(in, out, n, opts, stats);
      }
      return;
  }
}

void protected_transform_inplace(cplx* data, std::size_t n,
                                 const Options& opts, Stats& stats,
                                 const ProtectionPlan* plan) {
  require_plan_size(plan, n);
  if (opts.mode != Mode::kNone &&
      detail::inject_plan_state(n, opts, /*inplace=*/true)) {
    plan = nullptr;  // see protected_transform: re-resolve verified state
  }
  switch (opts.mode) {
    case Mode::kNone: {
      fft::Fft engine(n);
      engine.execute_inplace(data);
      return;
    }
    case Mode::kOffline: {
      // Offline protection has no in-place recovery story (the restart
      // input is gone); stage through a copy so the checksummed transform
      // still sees an intact input while writing over `data`.
      std::vector<cplx> copy(data, data + n);
      protected_transform(copy.data(), data, n, opts, stats, plan);
      return;
    }
    case Mode::kOnline:
      if (plan != nullptr) {
        inplace_online_transform(data, *plan, opts, stats);
      } else {
        inplace_online_transform(data, n, opts, stats);
      }
      return;
  }
}

std::vector<cplx> protected_fft(std::vector<cplx> input, const Options& opts) {
  const std::size_t n = input.size();
  detail::require(n >= 1, "protected_fft: size must be >= 1");
  std::vector<cplx> out(n);
  Stats stats;
  protected_transform(input.data(), out.data(), n, opts, stats,
                      resolve_protection_plan(n, opts, false).get());
  return out;
}

}  // namespace ftfft::abft
