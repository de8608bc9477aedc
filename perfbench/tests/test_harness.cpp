// Self-tests of the benchmark harness (no test framework: the benchmark
// builds without one). Run: perfbench_tests; exit status 0 = all passed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "dft/reference_dft.hpp"
#include "inputs.hpp"
#include "oracle.hpp"
#include "stats.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failures;
}

void nearest_rank_percentiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted 1..100
  check(perfbench::nearest_rank(v, 0.5) == 50.0, "p50 of 1..100 is 50");
  check(perfbench::nearest_rank(v, 0.99) == 99.0, "p99 of 1..100 is 99");
  check(perfbench::nearest_rank(v, 1.0) == 100.0, "p100 is the max");
  check(perfbench::nearest_rank(v, 0.001) == 1.0, "tiny q is the min");
  check(perfbench::nearest_rank({7.0}, 0.5) == 7.0, "single sample");
  check(perfbench::nearest_rank({}, 0.5) == 0.0, "empty input yields 0");
  check(perfbench::nearest_rank({1, 2, 3, 4}, 0.5) == 2.0,
        "nearest rank rounds up, never interpolates");

  std::vector<double> big(1000);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<double>(i);
  const auto s = perfbench::summarize(big);
  check(s.count == 1000 && s.tail_q == 0.99 && s.tail == 989.0,
        "summary tail: p99 keeps ten samples beyond it at n=1000");
  const auto small = perfbench::summarize(std::vector<double>(50, 1.0));
  check(small.tail_q == 0.75, "summary tail falls back to p75 at n=50");
}

void paired_ratio_median() {
  const double nan = NAN;
  // Drift: the baseline doubles halfway, the protected op with it.
  const std::vector<double> den = {1, 1, 1, 2, 2, 2, nan};
  const std::vector<double> num = {3, 3.1, 2.9, 6, 6.2, nan, 5};
  const auto r = perfbench::paired_ratios(num, den);
  check(r.size() == 5, "rounds with a failed side are skipped");
  check(perfbench::paired_median(num, den) == 3.0,
        "paired median cancels the drift");
  check(perfbench::paired_median({}, {}) == 0.0, "no pairs yields 0");
}

void oracle_flags_wrong_bin_and_refusal() {
  using perfbench::Outcome;
  const auto x = perfbench::make_input(perfbench::Family::kNormal, 64, 5);
  std::vector<perfbench::cplx> want(64), got;
  for (std::size_t j = 0; j < 64; ++j) {
    want[j] = ftfft::dft::reference_dft_element(x.data(), 64, j);
  }
  got = want;
  check(perfbench::judge(got.data(), want.data(), 64) == Outcome::kOk,
        "identical spectrum passes");
  got[17] += perfbench::cplx{1e-3, 0.0};
  check(perfbench::judge(got.data(), want.data(), 64) == Outcome::kWrong,
        "one planted wrong bin is flagged");
  got[17] = {NAN, 0.0};
  check(perfbench::judge(got.data(), want.data(), 64) == Outcome::kWrong,
        "a NaN bin is flagged");

  std::string msg;
  const auto refused = perfbench::classify(
      std::make_exception_ptr(ftfft::UncorrectableError("budget")), &msg);
  check(refused == Outcome::kRefused && msg == "budget",
        "UncorrectableError is a refusal");
  const auto other = perfbench::classify(
      std::make_exception_ptr(std::invalid_argument("size")), &msg);
  check(other == Outcome::kError, "other exceptions are harness-visible errors");

  bool threw = false;
  std::vector<perfbench::cplx> bad = want;
  bad[0] += perfbench::cplx{1.0, 0.0};
  try {
    perfbench::cross_check(x.data(), 64, bad.data(), 64, 1, 3);
  } catch (const std::runtime_error&) {
    threw = true;
  }
  check(threw, "cross_check rejects a wrong reference spectrum");
  perfbench::cross_check(x.data(), 64, want.data(), 64, 4, 3);
  check(true, "cross_check accepts the reference DFT");
}

void generator_determinism() {
  using perfbench::Family;
  bool same = true, differs = true;
  for (const Family f : perfbench::kAllFamilies) {
    const auto a = perfbench::make_input(f, 256, 42);
    const auto b = perfbench::make_input(f, 256, 42);
    const auto c = perfbench::make_input(f, 256, 43);
    same = same && a == b;
    differs = differs && a != c;
  }
  check(same, "same seed gives identical inputs for every family");
  check(differs, "another seed gives other inputs for every family");
  const auto chirp = perfbench::make_input(Family::kChirp, 1024, 9);
  bool unit_modulus = true;
  for (const auto& v : chirp) {
    unit_modulus = unit_modulus && std::abs(std::abs(v) - 1.0) < 1e-12;
  }
  check(unit_modulus, "chirp is unit-modulus");
  const auto imp = perfbench::make_input(Family::kImpulseNoise, 1024, 9);
  double peak = 0.0;
  for (const auto& v : imp) peak = std::max(peak, std::abs(v));
  check(peak > 9e5, "impulse_noise carries a 1e6 impulse");
  const auto r1 = perfbench::make_real_input(Family::kUniform, 128, 1);
  check(r1 == perfbench::make_real_input(Family::kUniform, 128, 1),
        "real inputs are deterministic too");
}

}  // namespace

int main() {
  nearest_rank_percentiles();
  paired_ratio_median();
  oracle_flags_wrong_bin_and_refusal();
  generator_determinism();
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
