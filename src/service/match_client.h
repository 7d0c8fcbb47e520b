// MatchClient: the resilient caller side of MatchService.
//
// MatchService answers every request with a definitive StatusCode, but it
// deliberately does NOT retry on the caller's behalf: a shed or rejected
// request is the service protecting itself, and whether trying again is
// worth the caller's latency budget is a caller decision.  MatchClient is
// that decision, packaged:
//
//   * Retries with decorrelated-jitter backoff (common/retry.h) on
//     retryable statuses only (kUnavailable / kResourceExhausted — see
//     IsRetryableStatus; a kDeadlineExceeded answer already spent the
//     caller's budget and is final).
//   * A RetryBudget so a fleet of clients cannot amplify an outage into a
//     retry storm: when the budget is dry, failures return immediately.
//   * An optional client-side CircuitBreaker: consecutive trip-class
//     failures stop the client from even submitting for a cool-off window
//     — useful when many clients share one service and admission traffic
//     itself has a cost.
//   * Optional hedging: after hedge_delay_ms without an answer, submit a
//     duplicate of the request and take whichever answer lands first.
//     Safe by construction here: the service's in-flight deduplication
//     makes the hedge attach to the original's ticket (one engine run,
//     bit-identical answers), so a hedge costs one admission, not one run.
//
// Determinism: backoff delays are drawn from a seeded Rng, so a client's
// retry schedule replays bit-identically; tests inject sleep_fn to observe
// the schedule instead of sleeping through it.
//
// Thread safety: one MatchClient may be shared by threads (budget and
// breaker are internally synchronized; the Rng is guarded by a mutex).

#ifndef CSM_SERVICE_MATCH_CLIENT_H_
#define CSM_SERVICE_MATCH_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>

#include "common/random.h"
#include "common/retry.h"
#include "service/match_service.h"

namespace csm {

struct MatchClientOptions {
  /// Backoff shape and attempt cap (attempts include the first call).
  RetryPolicy retry;
  /// Retry-storm control; capacity <= 0 disables the budget.  Each
  /// first-attempt success refills kRetryBudgetRefill tokens
  /// (match_client.cc).
  double retry_budget_capacity = 10.0;
  /// Client-side breaker over end-to-end outcomes.  Disabled by default
  /// (failure_threshold = 0): the service has its own backend breaker.
  CircuitBreakerOptions breaker = DisabledBreakerOptions();
  /// Hedging: 0 disables; > 0 submits a duplicate request after this many
  /// milliseconds without an answer and races the two futures.
  int64_t hedge_delay_ms = 0;
  /// Seed for the deterministic backoff Rng.
  uint64_t seed = 0x633173;  // "c1s"
  /// Injectable sleep for tests (null = std::this_thread::sleep_for).
  /// Receives the backoff in milliseconds.
  std::function<void(double)> sleep_fn;
};

class MatchClient {
 public:
  /// The service must outlive the client.
  explicit MatchClient(MatchService& service, MatchClientOptions options = {});

  /// Submit + wait, with retry / budget / breaker / hedging applied.  The
  /// returned response is the last attempt's answer (successful or not);
  /// response.deduplicated reflects that attempt's submission.
  MatchResponse Call(const MatchRequest& request);

  /// Retries actually performed (attempts beyond each Call's first).
  uint64_t retries() const { return retries_.load(); }
  /// Hedge submissions actually sent.
  uint64_t hedges() const { return hedges_.load(); }
  /// Hedged calls answered by the hedge before the original.
  uint64_t hedge_wins() const { return hedge_wins_.load(); }
  /// Retries suppressed by an exhausted budget.
  uint64_t budget_exhausted() const { return budget_exhausted_.load(); }
  /// Calls refused locally by the client-side breaker.
  uint64_t breaker_rejections() const { return breaker_rejections_.load(); }

  const CircuitBreaker& breaker() const { return breaker_; }
  const RetryBudget& budget() const { return budget_; }

 private:
  /// One submit + wait, hedged when configured.
  MatchResponse Attempt(const MatchRequest& request);
  void SleepMs(double ms);

  MatchService& service_;
  MatchClientOptions options_;
  RetryBudget budget_;
  CircuitBreaker breaker_;
  std::mutex rng_mu_;
  Rng rng_;
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> hedges_{0};
  std::atomic<uint64_t> hedge_wins_{0};
  std::atomic<uint64_t> budget_exhausted_{0};
  std::atomic<uint64_t> breaker_rejections_{0};
};

}  // namespace csm

#endif  // CSM_SERVICE_MATCH_CLIENT_H_
