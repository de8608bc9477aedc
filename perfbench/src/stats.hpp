// Order statistics behind every number perfbench prints.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample such that at least a share
/// q of all samples is <= it (q in (0, 1]). Empty input yields 0.
[[nodiscard]] double nearest_rank(std::vector<double> samples, double q);

/// A timing reported as a median plus the highest standard percentile that
/// still has at least ten samples beyond it.
struct Summary {
  std::size_t count = 0;
  double p50 = 0.0;
  double tail_q = 0.0;  ///< 0 when there are too few samples for any tail
  double tail = 0.0;
};
[[nodiscard]] Summary summarize(const std::vector<double>& samples);

/// Per-round ratios num[i] / den[i] over the rounds in which both sides
/// succeeded; a failed side is recorded as NaN.
[[nodiscard]] std::vector<double> paired_ratios(const std::vector<double>& num,
                                                const std::vector<double>& den);

/// Median of paired_ratios (0 when no round has both sides).
[[nodiscard]] double paired_median(const std::vector<double>& num,
                                   const std::vector<double>& den);

/// "n=812 p50=2.013 ms p95=2.407 ms" in the given unit.
[[nodiscard]] std::string describe(const Summary& s, const char* unit);

}  // namespace perfbench
