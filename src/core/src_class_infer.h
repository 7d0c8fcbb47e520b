// SrcClassInfer (Section 3.2.3): train the ClusteredViewGen classifier
// directly on source values — Naive Bayes over 3-grams for text evidence
// attributes, a Gaussian statistical classifier for numeric ones.

#ifndef CSM_CORE_SRC_CLASS_INFER_H_
#define CSM_CORE_SRC_CLASS_INFER_H_

#include "core/clustered_view_gen.h"
#include "core/view_inference.h"

namespace csm {

class SrcClassInfer : public ViewInference {
 public:
  SrcClassInfer(ClusteredViewGenOptions clustered,
                CategoricalOptions categorical)
      : clustered_(clustered), categorical_(categorical) {}

  std::string Name() const override { return "SrcClassInfer"; }

  std::vector<CandidateView> InferCandidateViews(const InferenceInput& input,
                                                 Rng& rng) override;

 private:
  ClusteredViewGenOptions clustered_;
  CategoricalOptions categorical_;
};

/// SrcClassInfer's per-cell models: NaiveBayesCellModel for text (and
/// all-NULL) evidence, GaussianCellModel for numeric evidence.
ClassifierFactory SrcClassifierFactory();

/// Converts accepted families into the flat candidate list (shared with
/// TgtClassInfer).
std::vector<CandidateView> CandidatesFromFamilies(
    const std::vector<ViewFamily>& families);

/// The source sample's attributes split by one pass of the categorical
/// rule (shared with TgtClassInfer): `categorical` holds the label
/// attributes, minus the input's excluded partition attributes — callers
/// should skip inference when it is empty — and `non_categorical` the
/// evidence attributes.
CategoricalSplit InferenceAttributes(const InferenceInput& input,
                                     const CategoricalOptions& categorical);

}  // namespace csm

#endif  // CSM_CORE_SRC_CLASS_INFER_H_
