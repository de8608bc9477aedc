// Reproduces Table 3: weak-scaling execution time of opt-FT-FFTW when
// faults strike (0 / 2m / 2c / 2m+2c), fixed rank count, growing N.
//
// Expected shape (paper section 9.3.2): per-column times identical across
// fault loads; time grows ~linearly in N (N log N work on p ranks).
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

std::function<void(std::size_t, fault::Injector&)> make_arm(Load load) {
  return [load](std::size_t rank, fault::Injector& inj) {
    using fault::FaultSpec;
    using fault::Phase;
    const bool mem = load == Load::kTwoMem || load == Load::kTwoMemTwoComp;
    const bool comp = load == Load::kTwoComp || load == Load::kTwoMemTwoComp;
    if (mem && rank == 1) {
      inj.schedule(FaultSpec::memory_set(Phase::kCommBlock, 0, 5,
                                         {33.0, 2.0}));
    }
    if (mem && rank == 3) {
      inj.schedule(FaultSpec::memory_set(Phase::kFinalOutput, 0, 14,
                                         {-9.0, 12.0}));
    }
    if (comp && rank == 2) {
      inj.schedule(FaultSpec::computational(Phase::kRankFft1Output, 0, 2,
                                            {6.0, -6.0}));
    }
    if (comp && rank == 5) {
      inj.schedule(FaultSpec::computational(Phase::kMFftOutput, 3, 1,
                                            {2.0, 9.0}));
    }
  };
}

}  // namespace

int main() {
  bench::banner("Parallel weak scaling with faults (opt-FT-FFTW)",
                "Table 3, SC'17 Liang et al.");
  const std::size_t p = 8;
  std::vector<std::size_t> sizes;
  for (std::size_t base : {std::size_t{1} << 17, std::size_t{1} << 18,
                           std::size_t{1} << 19, std::size_t{1} << 20}) {
    sizes.push_back(scaled_size(base));
  }
  std::printf("p = %zu, simulated makespan\n\n", p);

  TablePrinter table({"Load", size_label(sizes[0]), size_label(sizes[1]),
                      size_label(sizes[2]), size_label(sizes[3])});
  const std::pair<const char*, Load> rows[] = {
      {"opt-FT-FFTW (0)", Load::kNone},
      {"opt-FT-FFTW (2m)", Load::kTwoMem},
      {"opt-FT-FFTW (2c)", Load::kTwoComp},
      {"opt-FT-FFTW (2m+2c)", Load::kTwoMemTwoComp},
  };
  for (const auto& [name, load] : rows) {
    std::vector<std::string> row{name};
    for (std::size_t n : sizes) {
      auto x = random_vector(n, InputDistribution::kUniform, 9 + n);
      ParallelReport report;
      // Warm-up, then best of two measured fault-injected runs.
      (void)parallel::submit_parallel(p, x, ParallelOptions::opt_ft_fftw())
          .get(&report);
      double best = 1e300;
      for (int rep = 0; rep < 2; ++rep) {
        (void)parallel::submit_parallel(p, x, ParallelOptions::opt_ft_fftw(),
                                        make_arm(load))
            .get(&report);
        best = std::min(best, report.makespan);
      }
      row.push_back(TablePrinter::fixed(best * 1e3, 3) + " ms");
    }
    table.add_row(row);
  }
  table.print();
  std::printf(
      "\nshape check: fault loads do not separate the rows; time scales "
      "with N.\n");
  return 0;
}
