#include "probes.hpp"

#include <cmath>
#include <functional>

#include "abft/dmr.hpp"
#include "checksum/dot.hpp"
#include "checksum/multi_error.hpp"
#include "fft/fft.hpp"
#include "fft/real_fft.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

// Results are folded in here so no probe call can be optimized away.
volatile double g_sink = 0.0;

// Median of at least 5 and at most 200 calls, about 0.1 s per probe; each
// call is one span. `prep` runs untimed before every call.
double median_ms(Tracer& tr, const char* name, const char* layer,
                 const std::function<void()>& call,
                 const std::function<void()>& prep = {}) {
  std::vector<double> t;
  const std::int64_t start = now_ns();
  while (t.size() < 5 || (t.size() < 200 && now_ns() - start < 100'000'000)) {
    if (prep) prep();
    Scope span(tr, name, layer);
    const std::int64_t a = now_ns();
    call();
    t.push_back(static_cast<double>(now_ns() - a) * 1e-6);
  }
  return nearest_rank(t, 0.5);
}

double gbps(double bytes, double ms) { return bytes / (ms * 1e-3) / 1e9; }

}  // namespace

ProbeResults run_probes(std::size_t n, std::size_t m, std::size_t k,
                        const std::vector<cplx>& x,
                        const std::vector<double>& xr, Tracer& tr) {
  namespace cs = ftfft::checksum;
  ProbeResults r;
  std::vector<cplx> out(n), w(n);
  for (std::size_t i = 0; i < n; ++i) w[i] = x[(i * 7 + 3) % n];

  {
    ftfft::fft::Fft f(n);
    r.fft_exec_ms = median_ms(tr, "Fft::execute", "fft",
                              [&] { f.execute(x.data(), out.data()); });
    ftfft::fft::Fft fm(m), fk(k);
    const double tm = median_ms(tr, "Fft::execute(m)", "fft",
                                [&] { fm.execute(x.data(), out.data()); });
    const double tk = median_ms(tr, "Fft::execute(k)", "fft",
                                [&] { fk.execute(x.data(), out.data()); });
    r.fft_exec_sub_us = 0.5 * (tm + tk) * 1e3;
    const auto real = ftfft::fft::RealFftPlan::get(n);
    r.fft_real_ms = median_ms(tr, "RealFftPlan::r2c", "fft",
                              [&] { real->r2c(xr.data(), out.data()); });
  }

  const double vec = 16.0 * static_cast<double>(n);  // bytes per n cplx
  r.weighted_sum_energy_gbps = gbps(
      2 * vec, median_ms(tr, "weighted_sum_energy", "checksum", [&] {
        g_sink = g_sink + cs::weighted_sum_energy(w.data(), x.data(), n).energy;
      }));
  r.dual_sum_gbps = gbps(vec, median_ms(tr, "dual_weighted_sum", "checksum", [&] {
    g_sink = g_sink + cs::dual_weighted_sum(nullptr, x.data(), n).plain.real();
  }));
  r.omega3_gbps = gbps(vec, median_ms(tr, "omega3_weighted_sum", "checksum", [&] {
    g_sink = g_sink + cs::omega3_weighted_sum(x.data(), n).real();
  }));
  r.copy_dual_sum_gbps = gbps(
      2 * vec, median_ms(tr, "copy_dual_sum", "checksum", [&] {
        g_sink = g_sink + cs::copy_dual_sum(out.data(), x.data(), n).plain.real();
      }));

  {
    // A t = 2 repair of one m-element block with two planted errors, the
    // escalation path a burst in an online input slot takes.
    const int moments = 4;
    const auto nodes = cs::shared_syndrome_nodes(m);
    const cs::SyndromeSet stored =
        cs::syndrome_sum(nullptr, x.data(), m, 1, moments, nodes->data());
    const double eta = 1e-9 * std::sqrt(cs::energy(x.data(), m));
    std::vector<cplx> block(m);
    bool all_ok = true;
    r.repair_us = 1e3 * median_ms(
        tr, "repair_errors", "checksum",
        [&] {
          const auto rep = cs::repair_errors(stored, block.data(), 1, nullptr,
                                             m, eta, 2, 6, nodes->data());
          all_ok = all_ok && rep.corrected && rep.errors == 2;
        },
        [&] {
          block.assign(x.begin(), x.begin() + static_cast<long>(m));
          block[3] += cplx{5.0, 1.0};
          block[m / 2 + 1] += cplx{-2.0, 4.0};
        });
    r.repair_ok = all_ok &&
                  ftfft::inf_diff(block.data(), x.data(), m) <=
                      1e-9 * ftfft::inf_norm(x.data(), m);
  }

  r.dmr_twiddle_ms = median_ms(tr, "dmr_twiddle_multiply", "abft", [&] {
    for (std::size_t c = 0; c < m; ++c) {
      (void)ftfft::abft::dmr_twiddle_multiply(x.data() + c, m,
                                              out.data() + c * k, k, n, c, c,
                                              nullptr);
    }
  });
  return r;
}

}  // namespace perfbench
