#include "core/src_class_infer.h"

#include <algorithm>

#include "ml/gaussian_classifier.h"
#include "ml/naive_bayes.h"
#include "relational/categorical.h"

namespace csm {

ClassifierFactory SrcClassifierFactory() {
  return [](const Column& h, const CellRows& rows,
            size_t num_atoms) -> std::unique_ptr<CellModel> {
    if (h.type() == ValueType::kInt || h.type() == ValueType::kReal) {
      return std::make_unique<GaussianCellModel>(h, rows, num_atoms);
    }
    return std::make_unique<NaiveBayesCellModel>(h, rows, num_atoms);
  };
}

std::vector<CandidateView> CandidatesFromFamilies(
    const std::vector<ViewFamily>& families) {
  std::vector<CandidateView> out;
  for (const ViewFamily& family : families) {
    for (const View& view : family.views) {
      CandidateView candidate;
      candidate.view = view;
      candidate.family_f1 = family.classifier_f1;
      candidate.family_significance = family.significance;
      candidate.evidence_attribute = family.evidence_attribute;
      out.push_back(std::move(candidate));
    }
  }
  return DeduplicateCandidates(std::move(out));
}

CategoricalSplit InferenceAttributes(const InferenceInput& input,
                                     const CategoricalOptions& categorical) {
  CategoricalSplit split =
      SplitCategoricalAttributes(input.source_sample, categorical);
  const auto& excluded = input.excluded_partition_attributes;
  std::erase_if(split.categorical, [&](const std::string& name) {
    return std::find(excluded.begin(), excluded.end(), name) != excluded.end();
  });
  return split;
}

std::vector<CandidateView> SrcClassInfer::InferCandidateViews(
    const InferenceInput& input, Rng& rng) {
  if (input.matches == nullptr || input.matches->empty()) return {};
  if (!input.source_sample.valid() || input.source_sample.num_rows() == 0) {
    return {};
  }
  CategoricalSplit attributes = InferenceAttributes(input, categorical_);
  if (attributes.categorical.empty()) return {};
  std::vector<ViewFamily> families = ClusteredViewGen(
      input.source_sample, SrcClassifierFactory(), clustered_, categorical_,
      input.early_disjuncts, rng, std::move(attributes.categorical),
      std::move(attributes.non_categorical), input.pool, input.obs,
      input.cancel);
  return CandidatesFromFamilies(families);
}

}  // namespace csm
