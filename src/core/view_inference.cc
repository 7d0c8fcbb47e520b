#include "core/view_inference.h"

#include <set>

#include "common/logging.h"
#include "core/naive_infer.h"
#include "core/src_class_infer.h"
#include "core/tgt_class_infer.h"

namespace csm {

const char* ViewInferenceKindToString(ViewInferenceKind kind) {
  switch (kind) {
    case ViewInferenceKind::kNaive:
      return "NaiveInfer";
    case ViewInferenceKind::kSrcClass:
      return "SrcClassInfer";
    case ViewInferenceKind::kTgtClass:
      return "TgtClassInfer";
  }
  return "unknown";
}

const char* SelectionPolicyToString(SelectionPolicy policy) {
  switch (policy) {
    case SelectionPolicy::kMultiTable:
      return "MultiTable";
    case SelectionPolicy::kQualTable:
      return "QualTable";
  }
  return "unknown";
}

std::unique_ptr<ViewInference> MakeViewInference(
    ViewInferenceKind kind, const ContextMatchOptions& options) {
  // Largest categorical cardinality NaiveInfer expands into disjunctive
  // subset conditions under EarlyDisjuncts (2^n blow-up guard).
  constexpr size_t kNaiveDisjunctLimit = 12;
  switch (kind) {
    case ViewInferenceKind::kNaive:
      return std::make_unique<NaiveInfer>(
          options.categorical, kNaiveDisjunctLimit,
          options.clustered.max_label_cardinality);
    case ViewInferenceKind::kSrcClass:
      return std::make_unique<SrcClassInfer>(options.clustered,
                                             options.categorical);
    case ViewInferenceKind::kTgtClass:
      return std::make_unique<TgtClassInfer>(options.clustered,
                                             options.categorical);
  }
  CSM_CHECK(false) << "unknown inference kind";
  return nullptr;
}

std::vector<CandidateView> DeduplicateCandidates(
    std::vector<CandidateView> candidates) {
  std::set<ViewId> seen;
  std::vector<CandidateView> out;
  out.reserve(candidates.size());
  for (auto& candidate : candidates) {
    if (seen.insert(ViewId::Of(candidate.view)).second) {
      out.push_back(std::move(candidate));
    }
  }
  return out;
}

}  // namespace csm
