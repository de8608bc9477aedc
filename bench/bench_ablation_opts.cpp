// Ablation of the section-4 sequential optimizations.
//
// Starting from the fully optimized online memory-FT scheme, each switch is
// turned off one at a time:
//
//   combined      = classic r1/r2 memory checksums instead of reusing rA (4.1)
//   postpone      = verify inputs before every sub-FFT instead of folding the
//                   check into the CCV (4.2)
//   incremental   = regenerate intermediate checksums in a separate pass
//                   instead of accumulating them (4.3)
//   buffering     = strided checksum/FFT reads instead of contiguous staging
//                   (4.4)
//
// The section-7.1.1 rA recurrence has no row: rA has one exact generator,
// built once per size and cached, so it costs nothing per transform.
//
// Expected: every ablation costs time; no-buffering hurts most (cache
// misses, the effect Fig. 7 highlights).
#include <vector>

#include "abft/options.hpp"
#include "abft/protected_fft.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"

namespace {

using namespace ftfft;

double run_opts(std::size_t n, const abft::Options& opts, int reps) {
  auto x = random_vector(n, InputDistribution::kUniform, 21 + n);
  std::vector<cplx> out(n);
  abft::Stats s;
  abft::protected_transform(x.data(), out.data(), n, opts, s);  // warm
  return bench::time_best(reps, [&] {
    abft::Stats stats;
    abft::protected_transform(x.data(), out.data(), n, opts, stats);
  });
}

}  // namespace

int main() {
  bench::banner("Ablation of the section-4 optimizations",
                "Sections 4.1-4.4, SC'17 Liang et al.");
  const std::size_t n = scaled_size(std::size_t{1} << 21);
  const int reps = static_cast<int>(scaled_runs(2));
  std::printf("N = %s, online scheme with memory FT\n\n",
              bench::size_label(n).c_str());

  const abft::Options base = abft::Options::online_opt(true);
  const double t_base = run_opts(n, base, reps);

  TablePrinter table({"Configuration", "Time", "vs fully optimized"});
  table.add_row({"fully optimized", TablePrinter::fixed(t_base * 1e3, 2) + " ms",
                 "+0.0%"});

  auto ablate = [&](const char* name,
                    const std::function<void(abft::Options&)>& tweak) {
    abft::Options opts = base;
    tweak(opts);
    const double t = run_opts(n, opts, reps);
    table.add_row({name, TablePrinter::fixed(t * 1e3, 2) + " ms",
                   (t >= t_base ? "+" : "") +
                       TablePrinter::fixed(bench::overhead_pct(t, t_base), 1) +
                       "%"});
  };
  ablate("- combined checksums (4.1)",
         [](abft::Options& o) { o.combined_checksums = false; });
  ablate("- verification postponing (4.2)",
         [](abft::Options& o) { o.postpone_mcv = false; });
  ablate("- incremental generation (4.3)",
         [](abft::Options& o) { o.incremental_mcg = false; });
  ablate("- contiguous buffering (4.4)",
         [](abft::Options& o) { o.contiguous_buffering = false; });
  ablate("all optimizations off", [](abft::Options& o) {
    o.combined_checksums = false;
    o.postpone_mcv = false;
    o.incremental_mcg = false;
    o.contiguous_buffering = false;
  });
  table.print();
  std::printf("\nno rA-generation row: rA is exact and cached per plan, so "
              "its generator never runs per transform.\n");
  std::printf("shape check: every row above the first costs time; the "
              "all-off row approaches the naive Online bar of Fig. 7(b).\n");
  return 0;
}
