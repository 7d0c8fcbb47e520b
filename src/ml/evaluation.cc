#include "ml/evaluation.h"

#include <algorithm>

#include "common/logging.h"

namespace csm {

double FBeta(double precision, double recall, double beta) {
  const double b2 = beta * beta;
  const double denom = b2 * precision + recall;
  if (denom == 0.0) return 0.0;
  return (1.0 + b2) * precision * recall / denom;
}

void ClassifierEvaluation::Observe(LabelId actual, LabelId predicted,
                                   size_t weight) {
  CSM_CHECK(actual != kNoLabel) << "an observation needs an actual label";
  total_ += weight;
  if (actual >= actual_counts_.size()) {
    actual_counts_.resize(size_t{actual} + 1, 0);
  }
  actual_counts_[actual] += weight;
  if (actual == predicted) {
    correct_ += weight;
  } else if (predicted != kNoLabel) {
    error_pairs_[std::minmax(actual, predicted)] += weight;
  }
}

double ClassifierEvaluation::F1() const {
  const double p = total_ == 0 ? 0.0
                               : static_cast<double>(correct_) /
                                     static_cast<double>(total_);
  return FBeta(p, p);
}

std::vector<std::pair<LabelPair, double>>
ClassifierEvaluation::RankedPairs() const {
  std::vector<std::pair<LabelPair, double>> out;
  out.reserve(error_pairs_.size());
  for (const auto& [pair, count] : error_pairs_) {
    // Normalize the confusion count by the frequency mass of the two
    // labels; labels never seen as "actual" keep the raw count.
    const double denom = static_cast<double>(actual_count(pair.first)) +
                         static_cast<double>(actual_count(pair.second));
    const double normalized = denom > 0.0
                                  ? static_cast<double>(count) / denom
                                  : static_cast<double>(count);
    out.emplace_back(pair, normalized);
  }
  // Highest normalized count first; ties to the lower pair.
  std::stable_sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.second > b.second;
  });
  return out;
}

}  // namespace csm
