// Differential correctness oracles for the ContextMatch pipeline.
//
// Each oracle runs the pipeline under two configurations that the design
// guarantees are observationally equivalent (DESIGN.md "Threading model &
// determinism", "Failure model, deadlines & degradation") and returns a
// non-OK Status describing the first divergence:
//
//   * CheckThreadInvariance      serial vs. thread pool (threads 1/2/4)
//   * CheckColdVsWarmCache       first engine call vs. session-cache hits
//   * CheckCancelledPrefix       a run cancelled at a fixed logical fault
//                                point vs. the same prefix of the full run
//
// Equivalence means fingerprint equality (check/fingerprint.h): selected
// matches, selected views and the entire scored pool, bit for bit.  The
// oracles are deterministic — same inputs, same verdict — so a failure
// reported by the fuzz harness replays exactly from its seed.

#ifndef CSM_CHECK_DIFFERENTIAL_H_
#define CSM_CHECK_DIFFERENTIAL_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "core/context_match.h"
#include "relational/table.h"

namespace csm::check {

/// Thread counts every oracle sweep covers by default.
inline const std::vector<size_t> kDefaultThreadCounts = {1, 2, 4};

/// Runs the pipeline at options.threads = 1 and at each count in
/// `thread_counts`; fails unless every fingerprint equals the serial one.
Status CheckThreadInvariance(const Database& source, const Database& target,
                             const ContextMatchOptions& options,
                             const std::vector<size_t>& thread_counts =
                                 kDefaultThreadCounts);

/// Runs one engine three times on the same pair; fails unless the warm
/// (cache-hit) runs reproduce the cold run bit for bit, and unless the
/// session cache actually reported hits.
Status CheckColdVsWarmCache(const Database& source, const Database& target,
                            const ContextMatchOptions& options);

/// Cancels a run with a fault injected at scoring-candidate index
/// `fault_index` (clamped to the full run's candidate count) and checks the
/// degradation contract at every thread count: the degraded pool must be a
/// prefix of the full run's pool (identical base matches, candidate views
/// and view matches up to the cut) and bit-identical across thread counts.
/// Returns OK without checking when the full run scores < 2 candidate
/// views (nothing to cut).
Status CheckCancelledPrefix(const Database& source, const Database& target,
                            const ContextMatchOptions& options,
                            size_t fault_index,
                            const std::vector<size_t>& thread_counts =
                                kDefaultThreadCounts);

/// Runs every oracle above on one input (fault index = half the full run's
/// candidate count); first failure wins.
Status CheckAllOracles(const Database& source, const Database& target,
                       const ContextMatchOptions& options,
                       const std::vector<size_t>& thread_counts =
                           kDefaultThreadCounts);

}  // namespace csm::check

#endif  // CSM_CHECK_DIFFERENTIAL_H_
