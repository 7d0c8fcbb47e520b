// Shape predicates for the paper's figure claims (bench_paper): each reads a
// figure's grid `xs` and per-point series means, and knows nothing of
// matching, so tests check them on hand-built series.

#ifndef CSM_BENCH_PAPER_CLAIMS_H_
#define CSM_BENCH_PAPER_CLAIMS_H_

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

namespace csm::bench {

using Series = std::vector<double>;

/// A closed x interval of a sweep.
struct Plateau {
  double lo = 0.0;
  double hi = 0.0;
  double width() const { return hi - lo; }
};

/// The longest run of adjacent grid points whose y is within `tol` of the
/// series maximum, the lowest-x run on a tie; a lone point has width 0.
inline Plateau MaxPlateau(const Series& xs, const Series& ys, double tol) {
  const double floor = *std::max_element(ys.begin(), ys.end()) - tol;
  Plateau best;
  size_t best_len = 0;
  for (size_t i = 0, run = 0; i < ys.size(); ++i) {
    run = ys[i] >= floor ? run + 1 : 0;
    if (run > best_len) {
      best_len = run;
      best = {xs[i + 1 - run], xs[i]};
    }
  }
  return best;
}

/// Number of points where a[i] > b[i].
inline size_t Wins(const Series& a, const Series& b) {
  size_t wins = 0;
  for (size_t i = 0; i < a.size(); ++i) wins += a[i] > b[i] ? 1 : 0;
  return wins;
}

/// a[i] >= b[i] at every point.
inline bool Dominates(const Series& a, const Series& b) {
  return Wins(b, a) == 0;
}

/// No step falls by more than `tol`, and the series ends more than `tol`
/// above where it starts.
inline bool Climbs(const Series& ys, double tol) {
  for (size_t i = 0; i + 1 < ys.size(); ++i) {
    if (ys[i + 1] < ys[i] - tol) return false;
  }
  return ys.back() > ys.front() + tol;
}

/// The series ends more than `tol` below where it starts.
inline bool EndsLower(const Series& ys, double tol) {
  return ys.back() < ys.front() - tol;
}

/// The smallest x whose y is more than `tol` below the first point's;
/// +infinity when the series never drops that far.
inline double FirstDrop(const Series& xs, const Series& ys, double tol) {
  for (size_t i = 1; i < ys.size(); ++i) {
    if (ys[i] < ys.front() - tol) return xs[i];
  }
  return std::numeric_limits<double>::infinity();
}

/// Every y at x > `cut` is below every y at x <= `cut`, and both sides of
/// the cut hold a point.
inline bool CollapsesAbove(const Series& xs, const Series& ys, double cut) {
  Series low, high;
  for (size_t i = 0; i < ys.size(); ++i) {
    (xs[i] <= cut ? low : high).push_back(ys[i]);
  }
  return !low.empty() && !high.empty() &&
         *std::max_element(high.begin(), high.end()) <
             *std::min_element(low.begin(), low.end());
}

}  // namespace csm::bench

#endif  // CSM_BENCH_PAPER_CLAIMS_H_
