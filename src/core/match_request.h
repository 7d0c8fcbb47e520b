// The request/response surface of the matching engine and service.
//
// Every mode of the paper's algorithm — ContextMatch (Fig. 5), conjunctive
// staging (§3.5) and target-side conditions (§3, §7) — is one MatchRequest
// that MatchEngine::Execute answers with one MatchResponse: the single
// shape a long-lived service queues, deduplicates, rate-limits and answers.
// Requests are built with designated initializers:
//
//   MatchResponse response = engine.Execute(
//       {.mode = MatchMode::kConjunctive,
//        .max_stages = 2,
//        .source = BorrowDatabase(src),      // or a shared_ptr you own
//        .target = BorrowDatabase(tgt)});
//
// Ownership: the request carries shared_ptr<const Database> so a queued
// request outlives the caller's stack frame (the service holds admitted
// requests until a dispatcher serves them).  Synchronous callers whose
// databases outlive the call wrap them with BorrowDatabase — a non-owning
// alias that costs nothing.

#ifndef CSM_CORE_MATCH_REQUEST_H_
#define CSM_CORE_MATCH_REQUEST_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/context_match.h"
#include "relational/table.h"
#include "relational/view.h"

namespace csm {

/// Which pipeline a MatchRequest runs.
enum class MatchMode {
  /// Algorithm ContextMatch (Fig. 5): conditions on the source tables.
  kContext,
  /// Section 3.5 iterative staging up to MatchRequest::max_stages
  /// conjunctive condition attributes; max_stages == 1 is plain kContext.
  kConjunctive,
  /// Target-side conditions.  Section 3 notes that "it is generally
  /// straightforward to reverse the role of source and target tables to
  /// discover matches involving conditions on the target table", and
  /// Section 7 lists views on the target schema as future work.  This mode
  /// is that reversal: the target database is matched as if it were the
  /// source, conditions are inferred on *its* tables (TgtClassInfer's
  /// "target" classifiers train on the source), and every match is flipped
  /// back into source -> target orientation with Match::condition_on_target
  /// set.  The canonical use mirrors Example 1.1: when the source keeps
  /// books and music in separate tables and the target combines them, each
  /// source table maps into the slice of the target table selected by its
  /// discriminator value.
  kTargetContext,
};

const char* MatchModeToString(MatchMode mode);

/// A non-owning shared_ptr view of a caller-owned database (aliasing
/// constructor with an empty control block).  The database must outlive
/// every use of the returned pointer.
inline std::shared_ptr<const Database> BorrowDatabase(const Database& db) {
  return std::shared_ptr<const Database>(std::shared_ptr<const Database>(),
                                         &db);
}

/// One unit of matching work, self-contained enough to queue.
struct MatchRequest {
  MatchMode mode = MatchMode::kContext;
  /// Conjunctive stages (kConjunctive only; must be >= 1).
  size_t max_stages = 1;
  /// Accounting key for the service's quotas and per-tenant metrics; the
  /// engine itself ignores it.  Empty = the default tenant.
  std::string tenant = {};
  /// Wall-clock budget for this request in milliseconds; 0 = unbounded.
  /// In the service the budget covers queue time too: a request that
  /// expires while queued is answered without running.  Overrides nothing —
  /// it combines with ContextMatchOptions::deadline_ms, whichever fires
  /// first.
  int64_t deadline_ms = 0;
  /// Run only phase 1 (standard match) and selection over the baseline —
  /// no contextual stages.  The response is answered OK with completeness
  /// kBaselineOnly.  The service's brownout mode forces this under
  /// sustained overload; callers can also request it directly for a cheap
  /// first answer.
  bool baseline_only = false;
  std::shared_ptr<const Database> source;
  std::shared_ptr<const Database> target;
};

/// The single response shape for every mode and every failure class.
struct MatchResponse {
  /// OK for a complete run; kDeadlineExceeded / kCancelled / kInternal for
  /// a degraded one (partial answer still present, see `completeness`);
  /// kInvalidArgument for a malformed request; kResourceExhausted /
  /// kUnavailable for service-level rejections (no run happened).
  Status status;
  MatchCompleteness completeness = MatchCompleteness::kComplete;

  /// The canonical output: matches oriented source -> target (for
  /// kTargetContext their conditions select target rows and
  /// Match::condition_on_target is set), plus the selected views — over
  /// source tables, or over target tables for kTargetContext.
  MatchList matches;
  std::vector<View> selected_views;

  /// The underlying pipeline run: scored pool, phase report, thread count.
  /// For kTargetContext this is the reversed-direction run (its matches are
  /// target -> source; the flipped ones above are the answer).  Default
  /// constructed when the request was rejected before running.
  ContextMatchResult result;

  /// Service bookkeeping: true when this response was served from an
  /// identical in-flight request rather than a run of its own.
  bool deduplicated = false;
  /// Admission -> dispatch and dispatch -> completion, service-side only.
  double queue_seconds = 0.0;
  double run_seconds = 0.0;

  bool ok() const { return status.ok(); }
  /// Process exit code per the shared table (common/status.h).
  int ExitCode() const { return ExitCodeForStatus(status.code()); }
};

}  // namespace csm

#endif  // CSM_CORE_MATCH_REQUEST_H_
