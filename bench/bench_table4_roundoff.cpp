// Reproduces Table 4: round-off error approximation quality.
//
// For many random inputs from U(-1,1) and N(0,1), measure the fault-free
// checksum residual |rX - (rA)x| of every m-point sub-FFT (layer 1) and
// every k-point sub-FFT (layer 2) of the online decomposition, and compare
// against (i) the paper's section-8 estimate (Est, the eta the paper would
// set) and (ii) the library's practical threshold. Throughput = fraction of
// verifications passing with the library threshold.
//
// Expected shape: Max < Est with headroom, throughput ~100%.
#include <cmath>
#include <vector>

#include "bench_util.hpp"
#include "checksum/dot.hpp"
#include "checksum/weights.hpp"
#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "fft/fft.hpp"
#include "roundoff/model.hpp"

namespace {

using namespace ftfft;

struct LayerResult {
  double max_resid = 0.0;
  double paper_est = 0.0;
  double practical = 0.0;
  std::size_t checks = 0;
  std::size_t flagged = 0;  // residual above the practical threshold
};

// Runs the two-layer decomposition of `runs` transforms of size n = m*k and
// collects residual statistics per layer.
void measure(std::size_t n, InputDistribution dist, std::size_t runs,
             LayerResult& layer1, LayerResult& layer2) {
  const auto [m, k] = balanced_split(n);
  const auto cm = checksum::input_checksum_vector(m);
  const auto ck = checksum::input_checksum_vector(k);
  fft::Fft fftm(m), fftk(k);
  const double sigma0 = component_sigma(dist);
  layer1.paper_est = roundoff::paper_eta(m, sigma0);
  layer2.paper_est =
      roundoff::paper_eta(k, std::sqrt(static_cast<double>(m)) * sigma0);

  std::vector<cplx> x(n), work(n), buf(std::max(m, k)), res(std::max(m, k));
  Rng rng(1000 + n);
  for (std::size_t run = 0; run < runs; ++run) {
    fill_random(x.data(), n, dist, rng);
    // Layer 1: k m-point sub-FFTs, stride k.
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t t = 0; t < m; ++t) buf[t] = x[t * k + i];
      const auto se = checksum::weighted_sum_energy(cm.data(), buf.data(), m);
      fftm.execute(buf.data(), work.data() + i * m);
      const cplx rx = checksum::omega3_weighted_sum(work.data() + i * m, m);
      const double resid = std::abs(rx - se.sum);
      const double eta = roundoff::practical_eta(
          m, std::sqrt(se.energy / (2.0 * static_cast<double>(m))));
      layer1.max_resid = std::max(layer1.max_resid, resid);
      layer1.practical = std::max(layer1.practical, eta);
      ++layer1.checks;
      if (resid > eta) ++layer1.flagged;
    }
    // Layer 2: m k-point sub-FFTs over twiddled columns.
    for (std::size_t c = 0; c < m; ++c) {
      for (std::size_t i = 0; i < k; ++i) {
        buf[i] = cmul(work[i * m + c],
                      omega(n, static_cast<std::uint64_t>(i) * c));
      }
      const auto se = checksum::weighted_sum_energy(ck.data(), buf.data(), k);
      fftk.execute(buf.data(), res.data());
      const cplx rx = checksum::omega3_weighted_sum(res.data(), k);
      const double resid = std::abs(rx - se.sum);
      const double eta = roundoff::practical_eta(
          k, std::sqrt(se.energy / (2.0 * static_cast<double>(k))));
      layer2.max_resid = std::max(layer2.max_resid, resid);
      layer2.practical = std::max(layer2.practical, eta);
      ++layer2.checks;
      if (resid > eta) ++layer2.flagged;
    }
  }
}

}  // namespace

int main() {
  bench::banner("Round-off error approximation",
                "Table 4, SC'17 Liang et al.");
  const std::size_t n = scaled_size(std::size_t{1} << 16);
  const std::size_t runs = scaled_runs(40);
  const auto [m, k] = balanced_split(n);
  std::printf("N = %s (m = %zu, k = %zu), %zu runs\n\n",
              bench::size_label(n).c_str(), m, k, runs);

  TablePrinter table({"Input", "Max 1", "Est 1 (paper)", "Eta 1 (lib)",
                      "Thput 1", "Max 2", "Est 2 (paper)", "Eta 2 (lib)",
                      "Thput 2"});
  for (InputDistribution dist :
       {InputDistribution::kUniform, InputDistribution::kNormal}) {
    LayerResult l1, l2;
    measure(n, dist, runs, l1, l2);
    const double thput1 =
        1.0 - static_cast<double>(l1.flagged) /
                  static_cast<double>(std::max<std::size_t>(l1.checks, 1));
    const double thput2 =
        1.0 - static_cast<double>(l2.flagged) /
                  static_cast<double>(std::max<std::size_t>(l2.checks, 1));
    table.add_row({dist == InputDistribution::kUniform ? "U(-1,1)" : "N(0,1)",
                   TablePrinter::sci(l1.max_resid),
                   TablePrinter::sci(l1.paper_est),
                   TablePrinter::sci(l1.practical),
                   TablePrinter::percent(thput1),
                   TablePrinter::sci(l2.max_resid),
                   TablePrinter::sci(l2.paper_est),
                   TablePrinter::sci(l2.practical),
                   TablePrinter::percent(thput2)});
  }
  table.print();
  std::printf(
      "\nshape check: Max < Eta (lib) with margin -> ~100%% throughput; the "
      "paper's Est sits in the same decade band.\n");
  return 0;
}
