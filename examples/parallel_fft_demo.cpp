// Distributed protected FFT, submitted asynchronously to the engine-sharded
// runtime (submit_parallel).
//
// One huge transform is sharded across the BatchEngine worker pool as three
// chained phase fan-outs; the caller gets a ParallelFuture back immediately
// and is free to do other work until get(). Faults strike computation,
// communication and memory on different simulated ranks and are corrected
// on the fly; the report breaks each phase into wall / compute / modeled
// communication time, and a final drill corrupts one message of every rank
// in the last transpose. Exits non-zero when a spectrum deviates from the
// sequential engine's by more than 1e-9 of its peak.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/rng.hpp"
#include "fft/fft.hpp"
#include "parallel/parallel_fft.hpp"
#include "parallel/parallel_plan.hpp"

int main() {
  using namespace ftfft;
  const std::size_t p = 8;
  const std::size_t n = 1 << 16;
  auto x = random_vector(n, InputDistribution::kUniform, 31415);

  const auto arm = [](std::size_t rank, fault::Injector& inj) {
    if (rank == 1) {
      inj.schedule(fault::FaultSpec::computational(
          fault::Phase::kRankFft1Output, 7, 2, {100.0, -3.0}));
    }
    if (rank == 4) {
      inj.schedule(fault::FaultSpec::memory_set(fault::Phase::kCommBlock, 2,
                                                11, {77.0, 77.0}));
    }
    if (rank == 6) {
      inj.schedule(fault::FaultSpec::computational(fault::Phase::kKFftOutput,
                                                   3, 5, {0.0, 42.0}));
    }
  };

  std::printf("sharded distributed FFT: N = %zu on %zu simulated ranks\n\n",
              n, p);

  // Resolve the parallel plan (checksum weights, k*r*k FFT2 scheme, eta
  // model) once, ahead of the submission: the submit itself then does no
  // plan or weight-generation work.
  parallel::warm_plans(p, n, /*protect=*/true);

  // Submit asynchronously; the future completes when the third phase does.
  auto fut = parallel::submit_parallel(p, x,
                                       parallel::ParallelOptions::opt_ft_fftw(),
                                       arm);
  std::printf("submitted; transform runs on the shared engine pool...\n");
  parallel::ParallelReport report;
  const auto spectrum = fut.get(&report);

  const auto want = fft::fft(x);
  double peak = 0.0;
  for (const cplx& v : want) peak = std::max(peak, std::abs(v));
  const auto deviation = [&](const std::vector<cplx>& got) {
    double worst = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      worst = std::max(worst, std::abs(got[j] - want[j]));
    }
    return worst;
  };
  const double worst = deviation(spectrum);
  std::printf("done: max deviation vs sequential engine = %.1e\n", worst);
  std::printf("faults: comp=%zu detected, mem=%zu corrected, comm=%zu "
              "corrected\n\n",
              report.stats.comp_errors_detected,
              report.stats.mem_errors_corrected,
              report.comm_stats.comm_errors_corrected);

  std::printf("per-phase split (wall / max rank CPU / modeled comm):\n");
  static const char* const kPhase[] = {"transpose1 + FFT1",
                                       "transpose2 + twiddle + FFT2",
                                       "transpose3 + adjust"};
  for (int ph = 0; ph < 3; ++ph) {
    std::printf("  %-28s %8.3f ms %8.3f ms %8.3f ms\n", kPhase[ph],
                report.phases[ph].wall_seconds * 1e3,
                report.phases[ph].max_cpu_seconds * 1e3,
                report.phases[ph].modeled_comm * 1e3);
  }

  // Link-corruption drill: every rank's message from its next neighbour in
  // transpose 3 (unit 2p + q) arrives with one flipped mantissa bit; the
  // message checksums locate and repair each one on reception.
  const auto corrupt_links = [](std::size_t rank, fault::Injector& inj) {
    const std::size_t q = (rank + 1) % p;
    inj.schedule(fault::FaultSpec::bit_flip(fault::Phase::kCommBlock,
                                            2 * p + q, 11, 44, false));
  };
  parallel::ParallelReport linked;
  const auto y =
      parallel::submit_parallel(p, x, parallel::ParallelOptions::opt_ft_fftw(),
                                corrupt_links)
          .get(&linked);
  const double worst_link = deviation(y);
  std::printf("\nlink-corruption drill: one message per rank corrupted in "
              "transpose 3; comm corrected = %zu, max deviation = %.1e\n",
              linked.comm_stats.comm_errors_corrected, worst_link);
  if (std::max(worst, worst_link) > 1e-9 * peak) {
    std::printf("FAILED: a spectrum deviates by more than 1e-9 of its peak "
                "(%.1e)\n", peak);
    return 1;
  }
  std::printf("\nall injected faults were corrected on the fly; the phase "
              "split shows where checksum and twiddle work rides under "
              "communication.\n");
  return 0;
}
