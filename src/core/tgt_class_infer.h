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

#include <map>
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

/// The TBag / bestCAT wrapper: a ValueClassifier whose labels are
/// categorical values, driven by a shared per-type target classifier.
class TgtTagClassifier : public ValueClassifier {
 public:
  /// `tagger` assigns target-column tags to the cells this classifier is
  /// given; shared across (h, l) pairs of the same evidence type.  May be
  /// null (every cell tags as kNoLabel, so everything maps to the most
  /// common label).
  explicit TgtTagClassifier(std::shared_ptr<const ValueClassifier> tagger)
      : tagger_(std::move(tagger)) {}

  /// Tags the cell with the shared tagger and counts (tag, label) in the
  /// TBag.
  void Train(const Column& column, size_t row, LabelId label) override;
  /// bestCAT of the cell's tag.
  LabelId Classify(const Column& column, size_t row) const override;

  /// bestCAT for a raw tag (exposed for tests); kNoLabel when untrained.
  LabelId BestCat(LabelId tag) const;

  /// score(g, v) = P(v|g) * P(g|v); 0 when unseen.
  double Score(LabelId tag, LabelId label) const;

 private:
  LabelId Tag(const Column& column, size_t row) const;

  /// One tag's row of the TBag: its (tag, label) counts by label id.
  struct TagCounts {
    size_t total = 0;
    std::vector<size_t> per_label;
  };

  std::shared_ptr<const ValueClassifier> tagger_;
  std::map<LabelId, TagCounts> tbag_;
  std::vector<size_t> label_totals_;  // indexed by label id
  size_t total_ = 0;
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
