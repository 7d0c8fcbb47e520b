// Per-label Gaussian ("statistical") classifier for numeric attributes
// (Section 3.2.3: "If h is a numeric attribute, a statistical classifier
// is used instead").

#ifndef CSM_ML_GAUSSIAN_CLASSIFIER_H_
#define CSM_ML_GAUSSIAN_CLASSIFIER_H_

#include <vector>

#include "ml/classifier.h"
#include "stats/descriptive.h"

namespace csm {

/// One label's Gaussian, as both GaussianClassifier and GaussianCellModel
/// score it: its mean, its floored sample deviation, and the part of the
/// log posterior that does not depend on the input, log(prior) -
/// log(stddev) - log(2 pi) / 2, evaluated in that order.
struct GaussianLabel {
  /// Floor on each label's standard deviation, which keeps single-point or
  /// constant labels from producing degenerate likelihoods.
  static constexpr double kMinStdDev = 1e-6;

  /// `stats` folds the label's train values; the prior is its count among
  /// `total_examples`.
  static GaussianLabel Of(const DescriptiveStats& stats,
                          size_t total_examples);

  /// The log posterior (up to the evidence term) of `x`: log_norm minus half
  /// the squared z-score, the same double as the whole expression.
  double LogScore(double x) const {
    const double z = (x - mean) / stddev;
    return log_norm - 0.5 * z * z;
  }

  double mean = 0.0;
  double stddev = 0.0;
  double log_norm = 0.0;
};

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
  static constexpr double kMinStdDev = GaussianLabel::kMinStdDev;

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

/// GaussianClassifier fitted once to a grid cell (CellModel).  A group keeps
/// its train rows' indices in train-row order; a merge joins two groups'
/// lists in that order and refolds the merged group's values, because the
/// Welford fold depends on order (DescriptiveStats::Merge of the parts
/// gives other bits).  Only the merged group's GaussianLabel is recomputed:
/// a prior's denominator is the train-row count, which no merge changes.
/// Test items are distinct values (by bit pattern; ints widen to double).
class GaussianCellModel : public CellModel {
 public:
  GaussianCellModel(const Column& h, const CellRows& rows, size_t num_atoms);

  double Score(uint32_t item, size_t group) const override;
  void PredictAll(const std::vector<size_t>& label_order,
                  std::vector<LabelId>* predicted) const override;
  void Merge(size_t a, size_t b) override;

 private:
  struct Group {
    /// Indices into train_values_, ascending; empty when untrained.
    std::vector<uint32_t> rows;
    GaussianLabel label;
  };

  /// Folds `group`'s values in row order into its label.
  void Fit(Group* group) const;

  std::vector<double> train_values_;  // in train-row order
  std::vector<double> item_values_;
  std::vector<Group> groups_;
};

}  // namespace csm

#endif  // CSM_ML_GAUSSIAN_CLASSIFIER_H_
