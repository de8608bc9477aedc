// Distributed protected FFT, submitted asynchronously to the engine-sharded
// runtime (submit_parallel).
//
// One huge transform is sharded across the BatchEngine worker pool as three
// chained phase fan-outs; the caller gets a ParallelFuture back immediately
// and is free to do other work until get(). Faults strike computation,
// communication and memory on different simulated ranks and are corrected
// on the fly; the report breaks each phase into wall / compute / modeled
// communication time, and a final run shows a modeled rank *failure*
// absorbed by the restart budget.
#include <cstdio>

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
  double worst = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    worst = std::max(worst, std::abs(spectrum[j] - want[j]));
  }
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

  // A modeled node loss: rank 3 dies entering phase 2. With a restart
  // budget the executor re-runs the whole transform from the (pristine)
  // input, modeling failover to a spare node.
  parallel::ParallelOptions failing = parallel::ParallelOptions::opt_ft_fftw();
  failing.net.fail_rank = 3;
  failing.net.fail_phase = 2;
  failing.max_rank_restarts = 1;
  parallel::ParallelReport recovered;
  const auto y = parallel::submit_parallel(p, x, failing).get(&recovered);
  worst = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    worst = std::max(worst, std::abs(y[j] - want[j]));
  }
  std::printf("\nrank-failure drill: rank 3 died entering phase 2; "
              "restarts used = %zu, max deviation = %.1e\n",
              recovered.rank_restarts, worst);
  std::printf("\nall injected faults were corrected on the fly; the phase "
              "split shows where checksum and twiddle work rides under "
              "communication.\n");
  return 0;
}
