// The InferCandidateViews abstraction of Algorithm ContextMatch (Fig. 5,
// line 5): given a source table's sample, the accepted standard matches and
// the target sample, propose candidate view conditions to evaluate.

#ifndef CSM_CORE_VIEW_INFERENCE_H_
#define CSM_CORE_VIEW_INFERENCE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/random.h"
#include "core/context_options.h"
#include "exec/thread_pool.h"
#include "match/match_types.h"
#include "obs/hooks.h"
#include "relational/table.h"
#include "relational/table_view.h"
#include "relational/view.h"

namespace csm {

/// Inputs shared by all inference strategies.
struct InferenceInput {
  /// Sample of the source table Rs currently being matched: a zero-copy
  /// view over the engine's sample table.  At stage 1 this is the identity
  /// view; at conjunctive stages >= 2 it is the stage condition's PosList
  /// over the same base (no materialized copy).  A Table converts
  /// implicitly, so `input.source_sample = table;` still works; the viewed
  /// base must outlive the inference call.
  TableView source_sample;
  /// Sample of the whole target database (used by TgtClassInfer).
  const Database* target_sample = nullptr;
  /// Accepted standard matches from `source_sample` (no conditions are
  /// inferred when empty, per Fig. 5).
  const MatchList* matches = nullptr;
  /// EarlyDisjuncts: propose disjunctive conditions during inference.
  bool early_disjuncts = false;
  /// Attributes that may not participate in partitioning (the conjunctive
  /// iteration of Section 3.5 excludes attributes already in the stage's
  /// condition).
  std::vector<std::string> excluded_partition_attributes;
  /// Optional worker pool for the classifier-grid strategies; null runs the
  /// exact serial path.  Results are identical either way (see
  /// ClusteredViewGen).
  exec::ThreadPool* pool = nullptr;
  /// Optional tracing/metrics sinks (spans and an "inference.cell_seconds"
  /// histogram per classifier-grid cell).  Default hooks are all-null and
  /// record nothing; observation never feeds back into the results.
  obs::ObsHooks obs;
  /// Optional cooperative-cancellation token.  Once cancelled, the grid
  /// strategies drain (claimed cells finish, unclaimed cells are skipped)
  /// and return early; the caller must treat the candidates as incomplete
  /// (the pipeline discards the whole stage — see DESIGN.md "Failure
  /// model, deadlines & degradation").
  const CancellationToken* cancel = nullptr;
};

/// One proposed candidate view plus the evidence that produced it.
struct CandidateView {
  View view;
  /// Classifier quality of the family this view came from (0 for NaiveInfer).
  double family_f1 = 0.0;
  double family_significance = 0.0;
  /// Evidence attribute h (empty for NaiveInfer).
  std::string evidence_attribute;
};

/// Strategy interface; implementations are NaiveInfer, SrcClassInfer and
/// TgtClassInfer (Section 3.2).
class ViewInference {
 public:
  virtual ~ViewInference() = default;

  virtual std::string Name() const = 0;

  /// Proposes candidate views.  Deterministic given `rng`'s state.
  virtual std::vector<CandidateView> InferCandidateViews(
      const InferenceInput& input, Rng& rng) = 0;
};

/// Factory for the strategy selected in ContextMatchOptions.
std::unique_ptr<ViewInference> MakeViewInference(
    ViewInferenceKind kind, const ContextMatchOptions& options);

/// Removes candidates whose ViewId (base table, condition) duplicates an
/// earlier candidate's, keeping the first (highest-evidence) occurrence.
std::vector<CandidateView> DeduplicateCandidates(
    std::vector<CandidateView> candidates);

}  // namespace csm

#endif  // CSM_CORE_VIEW_INFERENCE_H_
