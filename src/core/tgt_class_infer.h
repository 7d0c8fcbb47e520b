// TgtClassInfer (Section 3.2.4): tag source values with the target column
// they most resemble, then learn the tag -> categorical-value association.
//
// createTargetClassifier(D, Rt) trains, per basic type D, a classifier over
// all target columns of that type whose labels are column names
// ("Book.Title").  The tag belongs to the value, so every evidence value is
// tagged once, before ClusteredViewGen runs (TargetTags).  During
// ClusteredViewGen's doTraining the TBag of (tag, label) pairs is
// collected; classification returns
// bestCAT(tag) = argmax_v score(tag, v) where
// score(g, v) = acc(g, v) * prec(g, v) = P(v|g) * P(g|v),
// ties broken toward the more common v, and unseen tags map to the most
// common label (the paper allows an arbitrary choice; we pick the most
// common for determinism).

#ifndef CSM_CORE_TGT_CLASS_INFER_H_
#define CSM_CORE_TGT_CLASS_INFER_H_

#include <string>
#include <vector>

#include "core/view_inference.h"
#include "ml/classifier.h"

namespace csm {

/// The tags of TgtClassInfer's evidence attributes.  Per basic type family
/// one classifier C_D is fitted to the target sample: the Naive Bayes model
/// to its string columns, the Gaussian model to its int and real columns
/// (ints widen to double).  Its labels rank the columns by their
/// "table.attr" names; columns whose names coincide keep distinct labels, in
/// table and attribute order.  Missing target cells (IsMissingCell) train
/// nothing.  Each distinct non-missing value of an evidence attribute is
/// then predicted once, with the labels in rank order, and that label is
/// the tag of every cell holding it: kNoLabel when the target has no
/// trained column of the family.
class TargetTags {
 public:
  /// Tags the cells of `evidence` (attributes of `source_sample`; int and
  /// real ones numeric, the rest text) at the sample's positions.
  TargetTags(const TableView& source_sample,
             const std::vector<std::string>& evidence,
             const Database& target_sample);

  /// The tags of evidence column `h` (the base column of one of the
  /// evidence attributes) by base position; kNoLabel at a missing cell and
  /// at a position outside the sample.
  const std::vector<LabelId>& Of(const Column& h) const;

 private:
  std::vector<const Column*> columns_;
  std::vector<std::vector<LabelId>> tags_;  // parallel to columns_
};

/// bestCAT's score(g, v) = P(v|g) * P(g|v) from TBag counts: `joint`
/// (tag g, label v) pairs among the tag's `tag_total` and the label's
/// `label_total` train rows; 0 when the pair never occurs.  The one copy
/// of the expression, for BestCatCellModel and the reference TBag
/// classifier the fuzzers diff it against.
inline double BestCatScore(size_t joint, size_t tag_total,
                           size_t label_total) {
  if (joint == 0) return 0.0;
  const double pairs = static_cast<double>(joint);
  return (pairs / static_cast<double>(tag_total)) *
         (pairs / static_cast<double>(label_total));
}

/// The TBag / bestCAT classifier fitted once to a grid cell (CellModel).
/// `tags` holds the evidence column's tags by base position
/// (TargetTags::Of), read once per train and test row.  A group keeps its
/// (tag, group) counts by train tag and its train-row total, so a merge
/// adds two groups' counts.  Test items are distinct tags; bestCAT of
/// a tag no train row holds scores 0 for every label, so it goes to the
/// most frequent group.  Ties go to the more frequent group, then the
/// lower label (BeatsBest).
class BestCatCellModel : public CellModel {
 public:
  BestCatCellModel(const std::vector<LabelId>& tags, const CellRows& rows,
                   size_t num_atoms);

  double Score(uint32_t item, size_t group) const override;
  void PredictAll(const std::vector<size_t>& label_order,
                  std::vector<LabelId>* predicted) const override;
  void Merge(size_t a, size_t b) override;

 private:
  static constexpr uint32_t kUnseenTag = static_cast<uint32_t>(-1);

  struct Group {
    size_t total = 0;
    std::vector<size_t> joint;  // by train tag
  };

  std::vector<size_t> tag_totals_;  // by train tag
  std::vector<uint32_t> item_tag_;  // train tag, or kUnseenTag
  std::vector<Group> groups_;
};

class TgtClassInfer : public ViewInference {
 public:
  TgtClassInfer(ClusteredViewGenOptions clustered,
                CategoricalOptions categorical)
      : clustered_(clustered), categorical_(categorical) {}

  std::string Name() const override { return "TgtClassInfer"; }

  std::vector<CandidateView> InferCandidateViews(const InferenceInput& input,
                                                 Rng& rng) override;

 private:
  ClusteredViewGenOptions clustered_;
  CategoricalOptions categorical_;
};

}  // namespace csm

#endif  // CSM_CORE_TGT_CLASS_INFER_H_
