// The result of Algorithm ContextMatch (Fig. 5): the selected contextual
// matches, their views, the scored pool and how complete the run was.
// Every mode runs through MatchEngine::Execute (core/match_engine.h), whose
// MatchResponse carries this result.

#ifndef CSM_CORE_CONTEXT_MATCH_H_
#define CSM_CORE_CONTEXT_MATCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/context_options.h"
#include "core/select_matches.h"
#include "core/view_inference.h"
#include "match/match_types.h"
#include "obs/metrics.h"
#include "relational/table.h"
#include "relational/view.h"

namespace csm {

/// How much of the pipeline a result covers.  Anything other than
/// kComplete means the run was cancelled (deadline, caller, or injected
/// fault) and degraded per the per-phase contracts in DESIGN.md "Failure
/// model, deadlines & degradation".
enum class MatchCompleteness {
  /// Every phase ran to the end; the result is the full answer.
  kComplete,
  /// The standard-match baseline is complete and at least one chunk of
  /// contextual view scoring finished; selection ran over that partial
  /// pool, so contextual matches may be present but more existed to score.
  kPartialViews,
  /// Only standard matches (possibly from a prefix of the source tables,
  /// when cancellation landed inside phase 1); no contextual matches.
  kBaselineOnly,
};

const char* MatchCompletenessToString(MatchCompleteness completeness);

/// Output of a ContextMatch run.
struct ContextMatchResult {
  /// The selected contextual matches (the algorithm's output set M).
  MatchList matches;
  /// The views those matches originate from.
  std::vector<View> selected_views;
  /// Diagnostics: everything that was scored.
  ScoredPool pool;

  /// Worker threads the run used (ContextMatchOptions::threads after
  /// resolving 0 to the hardware concurrency).
  size_t threads_used = 1;

  /// OK for a complete run.  kDeadlineExceeded / kCancelled / kInternal
  /// when the run degraded (deadline, caller Cancel, injected fault); the
  /// message names the phase cancellation was observed in.  Degraded runs
  /// still return their best-so-far matches — check `completeness`.
  Status status;
  MatchCompleteness completeness = MatchCompleteness::kComplete;

  /// Observability snapshot of the run: per-phase wall-clock seconds
  /// ("standard_match", "inference", "scoring", "selection"), work-volume
  /// counters ("source_tables", "base_matches", "candidate_views",
  /// "view_matches", plus "pool.*" / "engine.*" diagnostics), and latency
  /// histogram summaries ("scoring.view_seconds", "inference.cell_seconds",
  /// "standard.session_seconds", "pool.task_run_seconds", ...).  Counters
  /// are independent of the thread count.
  obs::PhaseReport phases;

  /// Sum of the phase wall-clock totals (the pre-PhaseReport four-field sum).
  double TotalSeconds() const { return phases.TotalSeconds(); }
};

}  // namespace csm

#endif  // CSM_CORE_CONTEXT_MATCH_H_
