// NaiveInfer (Section 3.2.1): propose a view for every value of every
// categorical attribute; under EarlyDisjuncts additionally propose
// disjunctive subset conditions (exponential in the cardinality, guarded by
// the disjunct limit; MakeViewInference passes 12).

#ifndef CSM_CORE_NAIVE_INFER_H_
#define CSM_CORE_NAIVE_INFER_H_

#include "core/view_inference.h"

namespace csm {

class NaiveInfer : public ViewInference {
 public:
  /// `max_label_cardinality` skips categorical attributes with more
  /// distinct values than this (same guard ClusteredViewGen applies).
  NaiveInfer(CategoricalOptions categorical, size_t disjunct_limit,
             size_t max_label_cardinality)
      : categorical_(categorical),
        disjunct_limit_(disjunct_limit),
        max_label_cardinality_(max_label_cardinality) {}

  std::string Name() const override { return "NaiveInfer"; }

  std::vector<CandidateView> InferCandidateViews(const InferenceInput& input,
                                                 Rng& rng) override;

 private:
  CategoricalOptions categorical_;
  size_t disjunct_limit_;
  size_t max_label_cardinality_;
};

}  // namespace csm

#endif  // CSM_CORE_NAIVE_INFER_H_
