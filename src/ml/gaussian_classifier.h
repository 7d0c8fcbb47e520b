// Per-label Gaussian ("statistical") classifier for numeric attributes
// (Section 3.2.3: "If h is a numeric attribute, a statistical classifier
// is used instead").

#ifndef CSM_ML_GAUSSIAN_CLASSIFIER_H_
#define CSM_ML_GAUSSIAN_CLASSIFIER_H_

#include <vector>

#include "ml/classifier.h"
#include "stats/descriptive.h"

namespace csm {

/// Models each label's numeric inputs as a Gaussian and classifies by
/// maximum posterior (Gaussian likelihood x label prior).  Reads kInt
/// columns (ints widen to double), kReal columns and all-NULL kNull
/// columns; CHECK-fails on any other column type.  A NaN or +-inf cell is
/// missing, like NULL: training skips it, so one such cell cannot turn a
/// label's mean and deviation into NaN and its score into a NaN that never
/// wins.  Exact ties go to the lower id; a cell on which every label scores
/// -inf or NaN classifies as kNoLabel.
class GaussianClassifier : public ValueClassifier {
 public:
  /// Floor on each label's standard deviation, which keeps single-point or
  /// constant labels from producing degenerate likelihoods.
  static constexpr double kMinStdDev = 1e-6;

  void Train(const Column& column, size_t row, LabelId label) override;
  LabelId Classify(const Column& column, size_t row) const override;

  /// Log posterior (up to the evidence term) of `label` for numeric `x`;
  /// -inf for labels never seen.
  double LogScore(double x, LabelId label) const;

 private:
  size_t total_examples_ = 0;
  /// Indexed by label id; an empty entry is a label never trained.
  std::vector<DescriptiveStats> labels_;
};

}  // namespace csm

#endif  // CSM_ML_GAUSSIAN_CLASSIFIER_H_
