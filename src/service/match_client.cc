#include "service/match_client.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

namespace csm {
namespace {

/// Retry-budget tokens each first-attempt success earns back.
constexpr double kRetryBudgetRefill = 0.1;

}  // namespace

MatchClient::MatchClient(MatchService& service, MatchClientOptions options)
    : service_(service),
      options_(std::move(options)),
      budget_(options_.retry_budget_capacity, kRetryBudgetRefill),
      breaker_(options_.breaker),
      rng_(options_.seed) {}

void MatchClient::SleepMs(double ms) {
  if (ms <= 0.0) return;
  if (options_.sleep_fn) {
    options_.sleep_fn(ms);
    return;
  }
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

MatchResponse MatchClient::Attempt(const MatchRequest& request) {
  SubmitHandle first = service_.Submit(request);
  if (options_.hedge_delay_ms <= 0) {
    MatchResponse response = first.future.get();
    response.deduplicated = first.deduplicated;
    return response;
  }
  // Hedged: give the original hedge_delay_ms, then race it against a
  // duplicate submission.  Server-side dedup makes the duplicate attach to
  // the original's run when that run is still in flight, so the hedge only
  // pays off when the original was answered terminally (shed, expired) or
  // already finished.
  if (first.future.wait_for(std::chrono::milliseconds(
          options_.hedge_delay_ms)) == std::future_status::ready) {
    MatchResponse response = first.future.get();
    response.deduplicated = first.deduplicated;
    return response;
  }
  SubmitHandle hedge = service_.Submit(request);
  hedges_.fetch_add(1);
  for (;;) {
    if (first.future.wait_for(std::chrono::milliseconds(1)) ==
        std::future_status::ready) {
      MatchResponse response = first.future.get();
      response.deduplicated = first.deduplicated;
      return response;
    }
    if (hedge.future.wait_for(std::chrono::milliseconds(1)) ==
        std::future_status::ready) {
      hedge_wins_.fetch_add(1);
      MatchResponse response = hedge.future.get();
      response.deduplicated = hedge.deduplicated;
      return response;
    }
  }
}

MatchResponse MatchClient::Call(const MatchRequest& request) {
  const int max_attempts = std::max(options_.retry.max_attempts, 1);
  double backoff_ms = 0.0;
  MatchResponse response;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (!breaker_.Allow()) {
      breaker_rejections_.fetch_add(1);
      response = MatchResponse();
      response.status =
          Status::Unavailable("client circuit open; not submitting");
      response.completeness = MatchCompleteness::kBaselineOnly;
      return response;
    }
    response = Attempt(request);
    if (response.status.ok()) {
      breaker_.RecordSuccess();
      if (attempt == 0) budget_.RecordSuccess();
      return response;
    }
    breaker_.RecordFailure(response.status.code());
    if (!IsRetryableStatus(response.status.code())) return response;
    if (attempt + 1 >= max_attempts) return response;
    if (!budget_.TrySpend()) {
      budget_exhausted_.fetch_add(1);
      return response;
    }
    {
      std::lock_guard<std::mutex> lock(rng_mu_);
      backoff_ms = options_.retry.NextBackoffMs(backoff_ms, rng_);
    }
    retries_.fetch_add(1);
    SleepMs(backoff_ms);
  }
  return response;
}

}  // namespace csm
