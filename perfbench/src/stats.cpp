#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

// 1-based nearest rank of quantile q among n samples.
std::size_t rank_of(double q, std::size_t n) {
  // The epsilon keeps q * n = 990.0000000001 from rounding up a whole rank.
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)),
                                 1, n);
}

}  // namespace

double nearest_rank(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const std::size_t r = rank_of(q, samples.size());
  std::nth_element(samples.begin(), samples.begin() + (r - 1), samples.end());
  return samples[r - 1];
}

Summary summarize(const std::vector<double>& samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  s.p50 = nearest_rank(samples, 0.5);
  for (const double q : {0.999, 0.99, 0.95, 0.9, 0.75}) {
    if (s.count - rank_of(q, s.count) >= 10) {
      s.tail_q = q;
      s.tail = nearest_rank(samples, q);
      break;
    }
  }
  return s;
}

std::vector<double> paired_ratios(const std::vector<double>& num,
                                  const std::vector<double>& den) {
  std::vector<double> out;
  const std::size_t n = std::min(num.size(), den.size());
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (std::isfinite(num[i]) && std::isfinite(den[i]) && den[i] > 0.0) {
      out.push_back(num[i] / den[i]);
    }
  }
  return out;
}

double paired_median(const std::vector<double>& num,
                     const std::vector<double>& den) {
  return nearest_rank(paired_ratios(num, den), 0.5);
}

std::string describe(const Summary& s, const char* unit) {
  char buf[160];
  if (s.tail_q > 0.0) {
    std::snprintf(buf, sizeof buf, "n=%zu p50=%.6g %s p%g=%.6g %s", s.count,
                  s.p50, unit, s.tail_q * 100.0, s.tail, unit);
  } else {
    std::snprintf(buf, sizeof buf, "n=%zu p50=%.6g %s", s.count, s.p50, unit);
  }
  return buf;
}

}  // namespace perfbench
