// Reproduces Table 2: strong-scaling execution time of opt-FT-FFTW when
// faults strike (0 / 2m / 2c / 2m+2c), fixed N, growing rank count.
//
// Expected shape (paper section 9.3.2): all rows essentially identical —
// each fault only re-runs one p-point or sqrt(n_loc)-point sub-FFT, so
// recovery cost vanishes in the simulated makespan.
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "parallel/parallel_fft.hpp"

namespace {

using namespace ftfft;
using bench::size_label;
using parallel::ParallelOptions;
using parallel::ParallelReport;

enum class Load { kNone, kTwoMem, kTwoComp, kTwoMemTwoComp };

// Injects the load spread over ranks, as in the paper ("faults are injected
// in each processor").
std::function<void(std::size_t, fault::Injector&)> make_arm(Load load) {
  return [load](std::size_t rank, fault::Injector& inj) {
    using fault::FaultSpec;
    using fault::Phase;
    const bool mem = load == Load::kTwoMem || load == Load::kTwoMemTwoComp;
    const bool comp = load == Load::kTwoComp || load == Load::kTwoMemTwoComp;
    if (mem && rank == 0) {
      inj.schedule(FaultSpec::memory_set(Phase::kCommBlock, 1, 3,
                                         {21.0, -4.0}));
    }
    if (mem && rank == 1) {
      inj.schedule(FaultSpec::memory_set(Phase::kFinalOutput, 0, 9,
                                         {-17.0, 8.0}));
    }
    if (comp && rank == 0) {
      inj.schedule(FaultSpec::computational(Phase::kRankFft1Output, 1, 1,
                                            {5.0, 5.0}));
    }
    if (comp && rank == 2 % 4) {
      inj.schedule(FaultSpec::computational(Phase::kKFftOutput, 2, 2,
                                            {-3.0, 7.0}));
    }
  };
}

double run_case(std::size_t p, std::size_t n, Load load) {
  auto x = random_vector(n, InputDistribution::kUniform, 3 + n + p);
  ParallelReport report;
  // Warm-up (no faults), then best of two measured fault-injected runs.
  (void)parallel::submit_parallel(p, x, ParallelOptions::opt_ft_fftw())
      .get(&report);
  double best = 1e300;
  for (int rep = 0; rep < 2; ++rep) {
    (void)parallel::submit_parallel(p, x, ParallelOptions::opt_ft_fftw(),
                                    make_arm(load))
        .get(&report);
    best = std::min(best, report.makespan);
  }
  return best;
}

}  // namespace

int main() {
  bench::banner("Parallel strong scaling with faults (opt-FT-FFTW)",
                "Table 2, SC'17 Liang et al.");
  const std::size_t n = scaled_size(std::size_t{1} << 20);
  std::printf("N = %s, simulated makespan\n\n", size_label(n).c_str());

  const std::vector<std::size_t> ps = {4, 8, 16, 32};
  TablePrinter table({"Load", "p=4", "p=8", "p=16", "p=32"});
  const std::pair<const char*, Load> rows[] = {
      {"opt-FT-FFTW (0)", Load::kNone},
      {"opt-FT-FFTW (2m)", Load::kTwoMem},
      {"opt-FT-FFTW (2c)", Load::kTwoComp},
      {"opt-FT-FFTW (2m+2c)", Load::kTwoMemTwoComp},
  };
  for (const auto& [name, load] : rows) {
    std::vector<std::string> row{name};
    for (std::size_t p : ps) {
      row.push_back(TablePrinter::fixed(run_case(p, n, load) * 1e3, 3) +
                    " ms");
    }
    table.add_row(row);
  }
  table.print();
  std::printf(
      "\nshape check: the four rows coincide within noise — multi-fault "
      "recovery is effectively free online.\n");
  return 0;
}
