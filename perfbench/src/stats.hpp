// Order statistics for the benchmark's samples.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Quantile q in [0, 1] with linear interpolation between order
/// statistics (Python's statistics.quantiles "inclusive" method); 0 for an
/// empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double at = q * static_cast<double>(v.size() - 1);
  const auto low = static_cast<std::size_t>(std::floor(at));
  const std::size_t high = std::min(low + 1, v.size() - 1);
  return v[low] + (at - static_cast<double>(low)) * (v[high] - v[low]);
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Nearest-rank percentile, q in (0, 1]: the smallest sample with at least
/// q of the sample at or below it.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

}  // namespace perfbench
