#include "check/differential.h"

#include <algorithm>
#include <sstream>
#include <string>

#include "check/fingerprint.h"
#include "common/cancellation.h"
#include "common/fault_injector.h"
#include "core/match_engine.h"

namespace csm::check {
namespace {

/// First line where two fingerprints diverge, for failure messages.
std::string DiffSummary(const std::string& expected,
                        const std::string& actual) {
  std::istringstream e(expected);
  std::istringstream a(actual);
  std::string eline;
  std::string aline;
  size_t line = 0;
  while (true) {
    const bool has_e = static_cast<bool>(std::getline(e, eline));
    const bool has_a = static_cast<bool>(std::getline(a, aline));
    if (!has_e && !has_a) return "fingerprints equal";
    ++line;
    if (!has_e || !has_a || eline != aline) {
      return "first divergence at line " + std::to_string(line) +
             ": expected '" + (has_e ? eline : "<eof>") + "' vs actual '" +
             (has_a ? aline : "<eof>") + "'";
    }
  }
}

ContextMatchResult RunEngine(const Database& source, const Database& target,
                             ContextMatchOptions options, size_t threads,
                             const CancellationToken* cancel = nullptr) {
  options.threads = threads;
  const MatchRequest request{.source = BorrowDatabase(source),
                             .target = BorrowDatabase(target)};
  return MatchEngine(options).Execute(request, cancel).result;
}

/// Disarms the global fault injector on scope exit, so an oracle that
/// returns early can never leak an armed spec into the next run.
struct InjectorGuard {
  ~InjectorGuard() { FaultInjector::DisarmAll(); }
};

Status CheckMatchListPrefix(const MatchList& prefix, const MatchList& full,
                            const char* what) {
  if (prefix.size() > full.size()) {
    return Status::Internal(std::string(what) + ": degraded run has " +
                            std::to_string(prefix.size()) +
                            " entries, full run only " +
                            std::to_string(full.size()));
  }
  for (size_t i = 0; i < prefix.size(); ++i) {
    if (prefix[i].ToString() != full[i].ToString()) {
      return Status::Internal(std::string(what) + " diverges at index " +
                              std::to_string(i) + ": degraded '" +
                              prefix[i].ToString() + "' vs full '" +
                              full[i].ToString() + "'");
    }
  }
  return Status::Ok();
}

Status CancelledPrefixAgainstFull(const Database& source,
                                  const Database& target,
                                  const ContextMatchOptions& options,
                                  const ContextMatchResult& full,
                                  size_t fault_index,
                                  const std::vector<size_t>& thread_counts) {
  std::string serial_degraded;
  for (size_t threads : thread_counts) {
    CancellationToken token;
    InjectorGuard guard;
    FaultInjector::Arm({.site = "scoring.candidate",
                        .index = fault_index,
                        .action = FaultInjector::Action::kCancel,
                        .token = &token,
                        .reason = CancelReason::kDeadline});
    const ContextMatchResult degraded =
        RunEngine(source, target, options, threads, &token);
    FaultInjector::DisarmAll();

    if (degraded.status.code() != StatusCode::kDeadlineExceeded) {
      return Status::Internal(
          "cancelled run at threads=" + std::to_string(threads) +
          " reported status '" + degraded.status.ToString() +
          "', expected kDeadlineExceeded");
    }
    if (degraded.completeness == MatchCompleteness::kComplete) {
      return Status::Internal(
          "cancelled run at threads=" + std::to_string(threads) +
          " claims kComplete");
    }

    // Degradation contract: the degraded pool is a prefix of the full pool.
    CSM_RETURN_IF_ERROR(CheckMatchListPrefix(degraded.pool.base_matches,
                                             full.pool.base_matches,
                                             "base_matches"));
    if (degraded.pool.candidate_views.size() >
        full.pool.candidate_views.size()) {
      return Status::Internal("degraded run scored more candidate views than "
                              "the full run");
    }
    for (size_t i = 0; i < degraded.pool.candidate_views.size(); ++i) {
      if (!(degraded.pool.candidate_views[i] ==
            full.pool.candidate_views[i])) {
        return Status::Internal(
            "candidate_views diverge at index " + std::to_string(i) +
            ": degraded '" + degraded.pool.candidate_views[i].ToString() +
            "' vs full '" + full.pool.candidate_views[i].ToString() + "'");
      }
    }
    CSM_RETURN_IF_ERROR(CheckMatchListPrefix(degraded.pool.view_matches,
                                             full.pool.view_matches,
                                             "view_matches"));
    for (const auto& [id, rows] : degraded.pool.view_row_counts) {
      auto it = full.pool.view_row_counts.find(id);
      if (it == full.pool.view_row_counts.end() || it->second != rows) {
        return Status::Internal("view_row_counts[" + id.base_table +
                                " where " + id.condition.ToString() +
                                "] missing or different in the full run");
      }
    }

    // Cross-thread-count determinism of the degraded run itself.
    const std::string fingerprint = FingerprintResult(degraded);
    if (serial_degraded.empty()) {
      serial_degraded = fingerprint;
    } else if (fingerprint != serial_degraded) {
      return Status::Internal(
          "degraded run diverges at threads=" + std::to_string(threads) +
          "; " + DiffSummary(serial_degraded, fingerprint));
    }
  }
  return Status::Ok();
}

}  // namespace

Status CheckThreadInvariance(const Database& source, const Database& target,
                             const ContextMatchOptions& options,
                             const std::vector<size_t>& thread_counts) {
  const std::string serial =
      FingerprintResult(RunEngine(source, target, options, 1));
  for (size_t threads : thread_counts) {
    if (threads == 1) continue;
    const std::string parallel =
        FingerprintResult(RunEngine(source, target, options, threads));
    if (parallel != serial) {
      return Status::Internal(
          "serial vs threads=" + std::to_string(threads) + " diverged; " +
          DiffSummary(serial, parallel));
    }
  }
  return Status::Ok();
}

Status CheckColdVsWarmCache(const Database& source, const Database& target,
                            const ContextMatchOptions& options) {
  MatchEngine engine(options);
  const MatchRequest request{.source = BorrowDatabase(source),
                             .target = BorrowDatabase(target)};
  const std::string cold = FingerprintResult(engine.Execute(request).result);
  for (int repeat = 0; repeat < 2; ++repeat) {
    const std::string warm =
        FingerprintResult(engine.Execute(request).result);
    if (warm != cold) {
      return Status::Internal("warm-cache repeat " +
                              std::to_string(repeat + 1) + " diverged; " +
                              DiffSummary(cold, warm));
    }
  }
  if (engine.session_cache_hits() < 2 || engine.session_cache_misses() != 1) {
    return Status::Internal(
        "session cache did not behave (hits=" +
        std::to_string(engine.session_cache_hits()) +
        ", misses=" + std::to_string(engine.session_cache_misses()) +
        "); the warm comparison proved nothing");
  }
  return Status::Ok();
}

Status CheckCancelledPrefix(const Database& source, const Database& target,
                            const ContextMatchOptions& options,
                            size_t fault_index,
                            const std::vector<size_t>& thread_counts) {
  const ContextMatchResult full = RunEngine(source, target, options, 1);
  const size_t candidates = full.pool.candidate_views.size();
  if (candidates < 2) return Status::Ok();  // nothing to cut
  fault_index = std::min(fault_index, candidates - 1);
  return CancelledPrefixAgainstFull(source, target, options, full,
                                    fault_index, thread_counts);
}

Status CheckAllOracles(const Database& source, const Database& target,
                       const ContextMatchOptions& options,
                       const std::vector<size_t>& thread_counts) {
  CSM_RETURN_IF_ERROR(
      CheckThreadInvariance(source, target, options, thread_counts));
  CSM_RETURN_IF_ERROR(CheckColdVsWarmCache(source, target, options));
  const ContextMatchResult full = RunEngine(source, target, options, 1);
  const size_t candidates = full.pool.candidate_views.size();
  if (candidates < 2) return Status::Ok();
  return CancelledPrefixAgainstFull(source, target, options, full,
                                    candidates / 2, thread_counts);
}

}  // namespace csm::check
