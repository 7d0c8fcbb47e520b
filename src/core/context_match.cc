#include "core/context_match.h"

namespace csm {

const char* MatchCompletenessToString(MatchCompleteness completeness) {
  switch (completeness) {
    case MatchCompleteness::kComplete:
      return "complete";
    case MatchCompleteness::kPartialViews:
      return "partial_views";
    case MatchCompleteness::kBaselineOnly:
      return "baseline_only";
  }
  return "unknown";
}

}  // namespace csm
