// Reproduces Fig. 8: parallel execution time (no faults) of FFTW /
// FT-FFTW / opt-FFTW / opt-FT-FFTW in (a) strong scaling and (b) weak
// scaling, on the engine-sharded six-step executor (submit_parallel).
//
// The reported numbers are *simulated makespans*: per rank and phase,
// thread-CPU compute time and an alpha-beta network model, added (blocking)
// or overlapped (opt-*: the longer of the two), max over ranks (see
// src/parallel/network_model.hpp). Expected shape (paper section 9.3.1):
// FT-FFTW carries checksum overhead over FFTW; overlap (opt-*) claws most
// of it back, with opt-FT-FFTW close to — and opt-FFTW at or below — the
// unprotected baseline.
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "parallel/parallel_fft.hpp"

namespace {

using namespace ftfft;
using bench::size_label;
using parallel::ParallelOptions;
using parallel::ParallelReport;

double run_variant(std::size_t p, const std::vector<cplx>& x,
                   ParallelOptions opts) {
  // One warm-up run (plan caches, twiddle tables, first-touch pages), then
  // the best of two measured runs.
  ParallelReport report;
  (void)parallel::submit_parallel(p, x, opts).get(&report);
  double best = 1e300;
  for (int rep = 0; rep < 2; ++rep) {
    (void)parallel::submit_parallel(p, x, opts).get(&report);
    best = std::min(best, report.makespan);
  }
  return best;
}

void add_variant_rows(TablePrinter& table,
                      const std::vector<std::pair<std::string,
                                                  ParallelOptions>>& variants,
                      const std::vector<std::size_t>& axis,
                      const std::function<std::pair<std::size_t,
                                                    std::size_t>(std::size_t)>&
                          geometry) {
  for (const auto& [name, opts] : variants) {
    std::vector<std::string> row{name};
    for (std::size_t a : axis) {
      const auto [p, n] = geometry(a);
      auto x = random_vector(n, InputDistribution::kUniform, 11 + n + p);
      row.push_back(
          TablePrinter::fixed(run_variant(p, x, opts) * 1e3, 3) + " ms");
    }
    table.add_row(row);
  }
}

}  // namespace

int main() {
  bench::banner("Parallel FT-FFT scaling (no faults, simulated makespan)",
                "Fig. 8(a)/(b), SC'17 Liang et al.");

  const std::vector<std::pair<std::string, ParallelOptions>> variants = {
      {"FFTW", ParallelOptions::fftw()},
      {"FT-FFTW", ParallelOptions::ft_fftw()},
      {"opt-FFTW", ParallelOptions::opt_fftw()},
      {"opt-FT-FFTW", ParallelOptions::opt_ft_fftw()},
  };

  // (a) strong scaling: fixed N, growing rank count.
  {
    const std::size_t n = scaled_size(std::size_t{1} << 20);
    std::printf("--- (a) strong scaling: N = %s ---\n",
                size_label(n).c_str());
    std::vector<std::size_t> ps = {4, 8, 16, 32};
    TablePrinter table({"Variant", "p=4", "p=8", "p=16", "p=32"});
    add_variant_rows(table, variants, ps, [&](std::size_t p) {
      return std::make_pair(p, n);
    });
    table.print();
    std::printf("\n");
  }

  // (b) weak scaling: fixed per-rank size, growing rank count.
  {
    const std::size_t per_rank = scaled_size(std::size_t{1} << 15);
    std::printf("--- (b) weak scaling: N/p = %s ---\n",
                size_label(per_rank).c_str());
    std::vector<std::size_t> ps = {4, 8, 16, 32};
    TablePrinter table({"Variant", "p=4", "p=8", "p=16", "p=32"});
    add_variant_rows(table, variants, ps, [&](std::size_t p) {
      return std::make_pair(p, per_rank * p);
    });
    table.print();
    std::printf("\n");
  }

  std::printf(
      "shape check: FT-FFTW > FFTW (checksum overhead); opt-FT-FFTW close "
      "to FFTW; opt-FFTW <= FFTW.\n");
  return 0;
}
