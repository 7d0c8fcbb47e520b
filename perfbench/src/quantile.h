// Exact quantiles over the benchmark's own recorded samples.
//
// Every percentile the benchmark reports comes from here, never from the
// library's obs::MetricsRegistry histograms: those use factor-2 buckets, so
// their p95/p99 collapse onto the bucket edge (and onto max).  Nearest rank
// is exact: the reported value is one of the samples.

#ifndef PERFBENCH_QUANTILE_H_
#define PERFBENCH_QUANTILE_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample such that at least
/// `percent`% of the samples are <= it, i.e. the ceil(percent/100 * n)-th
/// smallest.  Integer arithmetic keeps the rank exact (0.9 * 10 in floating
/// point is not 9).  NaN for an empty sample; percent is clamped to [1, 100].
inline double NearestRank(std::vector<double> samples, int percent) {
  if (samples.empty()) return std::nan("");
  percent = std::clamp(percent, 1, 100);
  const size_t n = samples.size();
  size_t rank = (static_cast<size_t>(percent) * n + 99) / 100;  // ceil
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

/// Median and p90 of one sample set, with its size.
struct Quantiles {
  size_t n = 0;
  double p50 = 0.0;
  double p90 = 0.0;
};

inline Quantiles Summarize(const std::vector<double>& samples) {
  Quantiles q;
  q.n = samples.size();
  q.p50 = NearestRank(samples, 50);
  q.p90 = NearestRank(samples, 90);
  return q;
}

}  // namespace perfbench

#endif  // PERFBENCH_QUANTILE_H_
