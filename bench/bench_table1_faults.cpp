// Reproduces Table 1: execution time of the sequential schemes when faults
// strike mid-run.
//
// Rows: FFTW(0), Opt-Offline(0), Opt-Offline(1m), Opt-Offline(1c),
// Opt-Online(0), Opt-Online(1c), Opt-Online(1m+1c), Opt-Online(1m+2c).
//
// Expected shape: a computational fault roughly doubles the offline
// scheme's time (full re-execution, paper section 9.2.2), while the online
// scheme's time barely moves no matter how many single-unit faults are
// injected (each recovery re-runs only a Theta(sqrt(N))-point sub-FFT).
// Here the offline row departs from the paper's Table 1: a located input
// memory fault (1m) is removed from the computed spectrum by an O(N) update
// and a re-check, so it costs well under the paper's ~2x.
#include <vector>

#include "abft/options.hpp"
#include "abft/protected_fft.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"

namespace {

using namespace ftfft;
using bench::size_label;

// Fault loads of the paper's rows.
enum class Load { kNone, kOneMem, kOneComp, kOneMemOneComp, kOneMemTwoComp };

void arm(fault::Injector& inj, Load load) {
  using fault::FaultSpec;
  using fault::Phase;
  switch (load) {
    case Load::kNone:
      return;
    case Load::kOneMem:
      inj.schedule(FaultSpec::memory_set(Phase::kInputAfterChecksum, 0, 1234,
                                         {25.0, -3.0}));
      return;
    case Load::kOneComp:
      inj.schedule(
          FaultSpec::computational(Phase::kMFftOutput, 2, 7, {4.0, 4.0}));
      return;
    case Load::kOneMemOneComp:
      arm(inj, Load::kOneMem);
      arm(inj, Load::kOneComp);
      return;
    case Load::kOneMemTwoComp:
      arm(inj, Load::kOneMemOneComp);
      inj.schedule(
          FaultSpec::computational(Phase::kKFftOutput, 5, 3, {-2.0, 6.0}));
      return;
  }
}

// For the offline scheme a "computational" fault is one whole-FFT output
// corruption.
void arm_offline(fault::Injector& inj, Load load) {
  using fault::FaultSpec;
  using fault::Phase;
  if (load == Load::kOneMem) {
    inj.schedule(FaultSpec::memory_set(Phase::kInputAfterChecksum, 0, 1234,
                                       {25.0, -3.0}));
  } else if (load == Load::kOneComp) {
    inj.schedule(
        FaultSpec::computational(Phase::kWholeFftOutput, 0, 7, {4.0, 4.0}));
  }
}

double run_case(std::size_t n, abft::Options opts, Load load, bool offline,
                int reps) {
  auto x = random_vector(n, InputDistribution::kUniform, 7 + n);
  std::vector<cplx> out(n);
  {  // warm plans
    abft::Stats s;
    auto copy = x;
    abft::protected_transform(copy.data(), out.data(), n, opts, s);
  }
  return bench::time_best(reps, [&] {
    fault::Injector inj;
    if (offline) {
      arm_offline(inj, load);
    } else {
      arm(inj, load);
    }
    abft::Options o = opts;
    o.injector = &inj;
    abft::Stats s;
    auto copy = x;  // faults repair/corrupt the input; keep runs independent
    abft::protected_transform(copy.data(), out.data(), n, o, s);
  });
}

}  // namespace

int main() {
  bench::banner("Sequential execution time with faults",
                "Table 1, SC'17 Liang et al.");
  std::vector<std::size_t> sizes;
  for (std::size_t base : {std::size_t{1} << 19, std::size_t{1} << 20,
                           std::size_t{1} << 21, std::size_t{1} << 22}) {
    sizes.push_back(scaled_size(base));
  }
  const int reps = static_cast<int>(scaled_runs(2));

  TablePrinter table({"Scheme", size_label(sizes[0]), size_label(sizes[1]),
                      size_label(sizes[2]), size_label(sizes[3])});
  auto add_row = [&](const char* name, abft::Options opts, Load load,
                     bool offline) {
    std::vector<std::string> row{name};
    for (std::size_t n : sizes) {
      row.push_back(
          TablePrinter::fixed(run_case(n, opts, load, offline, reps) * 1e3, 2) +
          " ms");
    }
    table.add_row(row);
  };

  add_row("FFTW (0)", abft::Options::none(), Load::kNone, false);
  add_row("Opt-Offline (0)", abft::Options::offline_opt(true), Load::kNone,
          true);
  add_row("Opt-Offline (1m)", abft::Options::offline_opt(true), Load::kOneMem,
          true);
  add_row("Opt-Offline (1c)", abft::Options::offline_opt(true),
          Load::kOneComp, true);
  add_row("Opt-Online (0)", abft::Options::online_opt(true), Load::kNone,
          false);
  add_row("Opt-Online (1c)", abft::Options::online_opt(true), Load::kOneComp,
          false);
  add_row("Opt-Online (1m+1c)", abft::Options::online_opt(true),
          Load::kOneMemOneComp, false);
  add_row("Opt-Online (1m+2c)", abft::Options::online_opt(true),
          Load::kOneMemTwoComp, false);
  table.print();
  std::printf(
      "\nshape check: Opt-Offline(1c) ~ 2x Opt-Offline(0) (re-execution); "
      "Opt-Offline(1m) well under 2x (O(N) spectrum update); Opt-Online "
      "rows stay flat as the fault count grows.\n");
  return 0;
}
