// Golden regression corpus: fixed dataset/options combinations whose
// serialized output is checked into tests/golden/: match results
// (check/fingerprint.h) in every Execute mode and the CSV bytes of
// executed mappings.  The runner (tests/golden_runner.cc) recomputes every
// case and diffs it against the checked-in expectation; any divergence —
// an algorithm change, a broken refactor, a nondeterminism leak — fails
// the build.  Intentional output changes are recorded with
//   golden_runner <golden_dir> --update
// and reviewed as part of the diff that caused them.

#ifndef CSM_CHECK_GOLDEN_H_
#define CSM_CHECK_GOLDEN_H_

#include <ostream>
#include <string>
#include <vector>

namespace csm::check {

/// Names of every case in the corpus, in execution order.
std::vector<std::string> GoldenCaseNames();

/// Recomputes one case's fingerprint; CHECK-fails on an unknown name.
std::string RunGoldenCase(const std::string& name);

/// Runs the whole corpus against `<golden_dir>/<case>.golden`.  With
/// `update`, rewrites the files instead of diffing.  Logs per-case
/// verdicts to `out`; returns the number of failing cases (0 for update).
int RunGoldenCorpus(const std::string& golden_dir, bool update,
                    std::ostream& out);

}  // namespace csm::check

#endif  // CSM_CHECK_GOLDEN_H_
