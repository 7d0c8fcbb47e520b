// Per-label Gaussian ("statistical") classifier for numeric attributes
// (Section 3.2.3: "If h is a numeric attribute, a statistical classifier
// is used instead").

#ifndef CSM_ML_GAUSSIAN_CLASSIFIER_H_
#define CSM_ML_GAUSSIAN_CLASSIFIER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "ml/classifier.h"
#include "stats/descriptive.h"

namespace csm {

/// One label's Gaussian, as both GaussianCellModel and the retrained
/// reference classifier (check/reference_classifier.h) score it: its mean,
/// its floored sample deviation, and the part of the log posterior that does
/// not depend on the input, log(prior) - log(stddev) - log(2 pi) / 2,
/// evaluated in that order.
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
/// maximum posterior (Gaussian likelihood x label prior), fitted once
/// (CellModel).  Reads kInt columns (ints widen to double), kReal columns
/// and all-NULL kNull columns; CHECK-fails on a string column.  A group
/// keeps its train rows' indices in train-row order; a merge joins two
/// groups' lists in that order and refolds the merged group's values,
/// because the Welford fold depends on order (DescriptiveStats::Merge of
/// the parts gives other bits).  Only the merged group's GaussianLabel is
/// recomputed: a prior's denominator is the train-row count, which no merge
/// changes.  Test items are distinct values (by bit pattern).  Exact ties
/// go to the lower label; an item on which every group scores -inf or NaN
/// is predicted kNoLabel.
class GaussianCellModel : public CellModel {
 public:
  /// A grid cell's model over evidence column `h`.
  GaussianCellModel(const Column& h, const CellRows& rows, size_t num_atoms);

  /// A tagger's model (TgtClassInfer): group g trains on every non-missing
  /// cell of `labels[g]` in row order — NULL, NaN and +-inf cells are
  /// skipped, so one cannot turn a group's mean into NaN — and the test
  /// cells are each `evidence[e]`'s non-missing cells at `positions`, one
  /// item per distinct value over all of them.  `(*items)[e][k]` receives
  /// the item of `evidence[e]` at `positions[k]`, kNoItem at a missing
  /// cell.  The items are numbered (num_items, item_row) but record no
  /// test counts.
  GaussianCellModel(const std::vector<const Column*>& labels,
                    const std::vector<const Column*>& evidence,
                    const PosList& positions,
                    std::vector<std::vector<uint32_t>>* items);

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

  /// Appends a train value of group `group_index`.
  void AddTrainValue(double x, size_t group_index);

  /// The item of value `x`, numbered the first time its bit pattern shows
  /// up (`item_of_bits`).
  uint32_t ItemOf(double x,
                  std::unordered_map<uint64_t, uint32_t>* item_of_bits);

  /// Folds `group`'s values in row order into its label.
  void Fit(Group* group) const;

  std::vector<double> train_values_;  // in train-row order
  std::vector<double> item_values_;
  std::vector<Group> groups_;
};

}  // namespace csm

#endif  // CSM_ML_GAUSSIAN_CLASSIFIER_H_
