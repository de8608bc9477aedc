// Monte-Carlo fault-injection campaign: a miniature of the paper's
// Table 6 experiment, runnable in seconds.
//
// Random high-bit flips strike the input or output of a protected
// transform; the campaign reports detection, correction and residual-error
// statistics for the online scheme, and the damage an unprotected transform
// would have silently delivered.
//
// All protected runs execute as ONE batch on the multi-threaded
// BatchEngine: each run is a lane with its own fault injector, so the
// campaign doubles as a demonstration that faults in one lane never leak
// into another.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/stats.hpp"
#include "core/ftfft.hpp"
#include "fault/bitflip.hpp"

int main(int argc, char** argv) {
  using namespace ftfft;
  const std::size_t n = 1 << 13;
  const int runs = argc > 1 ? std::max(0, std::atoi(argv[1])) : 150;
  const auto lanes = static_cast<std::size_t>(runs);

  auto input = random_vector(n, InputDistribution::kUniform, 99);
  FtPlan reference_plan(n, {Protection::kNone});
  std::vector<cplx> truth(n);
  {
    auto copy = input;
    reference_plan.forward(copy.data(), truth.data());
  }
  const double truth_norm = inf_norm(truth.data(), n);

  // Draw one random fault per run.
  struct Draw {
    bool in_input;
    std::size_t element;
    unsigned bit;
    bool imag;
  };
  std::vector<Draw> draws(lanes);
  Rng rng(2017);
  for (auto& d : draws) {
    d.in_input = rng.below(2) == 0;
    d.element = rng.below(n);
    d.bit = static_cast<unsigned>(fault::kFirstHighBit + rng.below(23));
    d.imag = rng.below(2) == 0;
  }

  // Unprotected damage for comparison (serial: it reuses one plan).
  SampleSet unprotected_damage;
  for (const Draw& d : draws) {
    auto x = input;
    std::vector<cplx> out(n);
    auto flip = [&](cplx& v) {
      v = d.imag ? cplx{v.real(), fault::flip_bit(v.imag(), d.bit)}
                 : cplx{fault::flip_bit(v.real(), d.bit), v.imag()};
    };
    if (d.in_input) flip(x[d.element]);
    reference_plan.forward(x.data(), out.data());
    if (!d.in_input) flip(out[d.element]);
    const double err = inf_diff(out.data(), truth.data(), n) / truth_norm;
    if (std::isfinite(err)) unprotected_damage.add(err);
  }

  // Protected runs: one batch, one injector per lane.
  std::vector<fault::Injector> injectors(lanes);
  std::vector<std::vector<cplx>> ins(lanes, input);
  std::vector<std::vector<cplx>> outs(lanes, std::vector<cplx>(n));
  std::vector<engine::Lane> batch(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    const Draw& d = draws[l];
    injectors[l].schedule(fault::FaultSpec::bit_flip(
        d.in_input ? fault::Phase::kInputAfterChecksum
                   : fault::Phase::kFinalOutput,
        0, d.element, d.bit, d.imag));
    batch[l] = {ins[l].data(), outs[l].data(), &injectors[l]};
  }
  const engine::BatchReport report =
      engine::BatchEngine::shared()
          .submit_batch(batch, n, {make_abft_options(PlanConfig{})})
          .get();

  std::size_t corrected = 0, uncorrectable = 0, undetected_damage = 0;
  SampleSet residuals;
  for (std::size_t l = 0; l < lanes; ++l) {
    if (!report.errors[l].empty()) {
      ++uncorrectable;
      continue;
    }
    const double err =
        inf_diff(outs[l].data(), truth.data(), n) / truth_norm;
    if (!std::isfinite(err) || err > 1e-6) {
      ++undetected_damage;
    } else {
      residuals.add(err);
      if (report.per_lane[l].mem_errors_corrected > 0) ++corrected;
    }
  }

  std::printf("fault campaign: %d runs, N = %zu, random high-bit flips\n",
              runs, n);
  std::printf("batch engine: %zu lanes across %zu threads\n\n", report.lanes,
              engine::BatchEngine::shared().num_threads());
  std::printf("unprotected: median damage %.2e, max %.2e (silent!)\n",
              unprotected_damage.quantile(0.5), unprotected_damage.max());
  std::printf("protected (online ABFT):\n");
  std::printf("  corrected cleanly         : %zu\n", corrected);
  std::printf("  flagged uncorrectable     : %zu (reported, not silent)\n",
              uncorrectable);
  std::printf("  residual damage > 1e-6    : %zu\n", undetected_damage);
  std::printf("  max residual among clean  : %.2e\n", residuals.max());
  std::printf("  verifications (batch total): %zu\n",
              report.totals.verifications);
  return 0;
}
