// SelectContextualMatches (Section 3.4): reduce the large pool of scored
// candidate matches to a small, coherent set for the user.
//
// MultiTable: the single highest-confidence match per target attribute
// (view matches participate only when they improve on their base match by
// omega).  QualTable: per target table, pick the source table with the
// highest total base confidence; swap in candidate views that improve the
// table-level total by at least omega — the single best view under
// EarlyDisjuncts, all improving views under LateDisjuncts.

#ifndef CSM_CORE_SELECT_MATCHES_H_
#define CSM_CORE_SELECT_MATCHES_H_

#include <map>
#include <string>
#include <vector>

#include "core/context_options.h"
#include "match/match_types.h"
#include "relational/view.h"

namespace csm {

/// Everything SelectContextualMatches sees: the accepted standard matches
/// plus every rescored conditional version (Fig. 5's RL, accumulated over
/// all source tables).
struct ScoredPool {
  /// Standard (condition == true) matches returned by StandardMatch.
  MatchList base_matches;
  /// Conditional versions of base matches, rescored against each candidate
  /// view's restricted sample.
  MatchList view_matches;
  /// The candidate views that produced `view_matches`.
  std::vector<View> candidate_views;
  /// Rows each candidate view selects.
  /// Used to break near-ties between equally confident views toward the
  /// one with larger coverage (two equally pure conditions — a merged
  /// disjunct vs one of its halves — score alike once size bias is
  /// corrected, but the larger one maps more of the data).
  std::map<ViewId, size_t> view_row_counts;
};

/// Result: the selected matches plus the views they originate from.
struct SelectionResult {
  MatchList matches;
  std::vector<View> selected_views;
};

/// MultiTable selection.
SelectionResult SelectMultiTable(const ScoredPool& pool, double omega);

/// QualTable selection.  `tau` re-filters view-match confidences so a
/// selected view only contributes matches with real evidence.
SelectionResult SelectQualTable(const ScoredPool& pool, double omega,
                                bool early_disjuncts, double tau);

/// Dispatch on the configured policy.
SelectionResult SelectContextualMatches(const ScoredPool& pool,
                                        const ContextMatchOptions& options);

}  // namespace csm

#endif  // CSM_CORE_SELECT_MATCHES_H_
