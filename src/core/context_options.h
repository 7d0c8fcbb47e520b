// Option bundles for the contextual matching pipeline (Sections 3.1-3.4).

#ifndef CSM_CORE_CONTEXT_OPTIONS_H_
#define CSM_CORE_CONTEXT_OPTIONS_H_

#include <cstdint>

#include "match/session.h"
#include "relational/categorical.h"

namespace csm {

/// Which InferCandidateViews implementation to run (Section 3.2).
enum class ViewInferenceKind {
  kNaive,     // NaiveInfer: every value of every categorical attribute
  kSrcClass,  // SrcClassInfer: source-side classifier evidence
  kTgtClass,  // TgtClassInfer: target-tagging classifier evidence
};

const char* ViewInferenceKindToString(ViewInferenceKind kind);

/// Which SelectContextualMatches implementation to run (Section 3.4).
enum class SelectionPolicy {
  kMultiTable,  // best match per target attribute
  kQualTable,   // best consistent source table (or its views) per target table
};

const char* SelectionPolicyToString(SelectionPolicy policy);

/// Options for ClusteredViewGen (Fig. 6) and its disjunctive extension.
struct ClusteredViewGenOptions {
  /// Acceptance threshold T on the significance of the classifier score
  /// against the random-label null (paper: 95%).
  double significance_threshold = 0.95;
  /// Ignore label attributes with more than this many distinct values.
  size_t max_label_cardinality = 50;
  /// Minimum test examples for the significance test to be meaningful.
  size_t min_test_size = 4;
};

/// Options for the full ContextMatch driver (Fig. 5).
struct ContextMatchOptions {
  /// StandardMatch confidence threshold (tau).
  double tau = 0.5;
  /// Improvement threshold (omega) used by SelectContextualMatches.  The
  /// paper's default is 0.5 on its own confidence scale.  On the Retail
  /// targets of this library, LateDisjuncts reaches its best F-measure over
  /// about omega in [0.1, 0.2] and EarlyDisjuncts only at 0.2-0.25
  /// (`bench_paper fig08 fig09 fig10`, EXPERIMENTS.md); 0.15 is the default.
  double omega = 0.15;
  /// EarlyDisjuncts vs LateDisjuncts (Section 3.3).
  bool early_disjuncts = true;
  ViewInferenceKind inference = ViewInferenceKind::kSrcClass;
  SelectionPolicy selection = SelectionPolicy::kQualTable;
  /// Seed for the train/test partitioning (experiments average over seeds).
  uint64_t seed = 1;
  /// Size-matched placebo correction (see DESIGN.md): when rescoring a
  /// candidate view, each pair is also scored on a *random* row subset of
  /// the same cardinality, and the confidence shift induced by mere
  /// shrinkage (placebo - base) is subtracted from the view's confidence.
  /// Without it, instance scores' systematic sensitivity to bag size makes
  /// every restriction look slightly worse on semantically unrelated pairs,
  /// and the summed bias drowns real improvements on wide schemas.
  bool placebo_correction = true;
  /// Worker threads for the parallel phases (session building, candidate
  /// scoring, classifier-grid training).  1 = serial legacy path (no pool is
  /// created); 0 = one thread per hardware core; N = exactly N workers.
  /// Results are bit-identical for every value: work decomposition and RNG
  /// streams are fixed up front, only the scheduling changes (see
  /// DESIGN.md "Threading model & determinism").
  size_t threads = 1;
  /// Wall-clock budget for one Execute call in milliseconds; 0 = unbounded.
  /// When the budget runs out the run degrades instead of finishing: it
  /// returns the standard-match baseline plus whatever contextual matches
  /// were fully scored, with ContextMatchResult::completeness downgraded
  /// and ContextMatchResult::status set to kDeadlineExceeded (see
  /// DESIGN.md "Failure model, deadlines & degradation").
  int64_t deadline_ms = 0;

  ClusteredViewGenOptions clustered;
  CategoricalOptions categorical;
  MatchOptions match;
};

}  // namespace csm

#endif  // CSM_CORE_CONTEXT_OPTIONS_H_
