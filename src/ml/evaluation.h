// Classifier evaluation for ClusteredViewGen: correct / total counts, the
// micro-averaged F1 that Section 3.2.2 uses as the view-family quality, and
// the unordered error-pair extraction that drives early-disjunct merging
// (Section 3.3).

#ifndef CSM_ML_EVALUATION_H_
#define CSM_ML_EVALUATION_H_

#include <cstddef>
#include <map>
#include <utility>
#include <vector>

#include "ml/classifier.h"

namespace csm {

/// An unordered pair of confused labels, held as (lower id, higher id).
using LabelPair = std::pair<LabelId, LabelId>;

/// Accumulates (actual, predicted) observations and reports quality.
class ClassifierEvaluation {
 public:
  /// Counts `weight` test rows of label `actual` predicted as `predicted`,
  /// which may be kNoLabel: an error that forms no error pair.  Counts are
  /// integers, so one observation of weight w equals w of weight 1.
  void Observe(LabelId actual, LabelId predicted, size_t weight = 1);

  size_t total() const { return total_; }
  size_t correct() const { return correct_; }

  /// Times `label` was the actual label.
  size_t actual_count(LabelId label) const {
    return label < actual_counts_.size() ? actual_counts_[label] : 0;
  }

  /// Micro-averaged F1.  For a single-label classifier every error is one
  /// false positive and one false negative, so micro precision and recall
  /// both equal p = correct / total, and F1 is FBeta(p, p); 0 when empty.
  double F1() const;

  /// Error-pair counts: for each misclassification (actual v, predicted
  /// v'), the unordered pair {v, v'} is counted once (false positives and
  /// false negatives are not distinguished, per Section 3.3).
  const std::map<LabelPair, size_t>& error_pairs() const {
    return error_pairs_;
  }

  /// Every error pair with its count normalized by the actual counts of its
  /// two labels (Section 3.3 "after normalizing for the frequency of v and
  /// v'"), highest first; ties go to the lower pair.
  std::vector<std::pair<LabelPair, double>> RankedPairs() const;

 private:
  size_t total_ = 0;
  size_t correct_ = 0;
  std::vector<size_t> actual_counts_;  // indexed by label id
  std::map<LabelPair, size_t> error_pairs_;
};

/// F_beta from precision and recall; 0 when both are 0.
double FBeta(double precision, double recall, double beta = 1.0);

}  // namespace csm

#endif  // CSM_ML_EVALUATION_H_
