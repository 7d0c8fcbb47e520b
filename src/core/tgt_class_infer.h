// TgtClassInfer (Section 3.2.4): tag source values with the target column
// they most resemble, then learn the tag -> categorical-value association.
//
// createTargetClassifier(D, Rt) trains, per basic type D, a classifier over
// all target columns of that type whose labels are column names
// ("Book.Title").  During ClusteredViewGen's doTraining the TBag of (tag,
// label) pairs is collected; classification returns
// bestCAT(tag) = argmax_v score(tag, v) where
// score(g, v) = acc(g, v) * prec(g, v) = P(v|g) * P(g|v),
// ties broken toward the more common v, and unseen tags map to the most
// common label (the paper allows an arbitrary choice; we pick the most
// common for determinism).

#ifndef CSM_CORE_TGT_CLASS_INFER_H_
#define CSM_CORE_TGT_CLASS_INFER_H_

#include <memory>
#include <vector>

#include "core/view_inference.h"
#include "ml/classifier.h"

namespace csm {

/// Trains the per-type target classifier C_D over the sample of the target
/// database: every non-null value of every attribute of type `type` becomes
/// a training example labeled with its column.  Label ids rank the columns
/// by their "table.attr" names; columns whose names coincide keep distinct
/// ids, in table and attribute order.  Returns nullptr when the target has
/// no attribute of that type.
std::unique_ptr<ValueClassifier> CreateTargetClassifier(
    ValueType type, const Database& target_sample);

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
/// `tagger` (shared by every cell of the evidence type, possibly null: every
/// cell then tags as kNoLabel) tags each train and test row once.  A group
/// keeps its (tag, group) counts by train tag and its train-row total, so a
/// merge adds two groups' counts.  Test items are distinct tags; bestCAT of
/// a tag no train row holds scores 0 for every label, so it goes to the
/// most frequent group.  Ties go to the more frequent group, then the
/// lower label (BeatsBest).
class BestCatCellModel : public CellModel {
 public:
  BestCatCellModel(const ValueClassifier* tagger, const Column& h,
                   const CellRows& rows, size_t num_atoms);

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
