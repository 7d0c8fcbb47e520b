// MatchEngine: the long-lived entry point to contextual schema matching.
//
// Execute is the one match entrypoint: it runs a MatchRequest in any mode
// (core/match_request.h) and answers a MatchResponse.  The engine hoists
// per-call state — a thread pool, one TableMatchSession per source table,
// the attribute score distributions inside each session — into an object,
// so a caller that matches repeatedly (parameter sweeps, benchmark trials, a
// service matching many sources against one warehouse schema) pays for it
// once:
//
//   csm::MatchEngine engine(options);
//   engine.set_tracer(&tracer);            // optional observability sinks
//   const csm::MatchRequest request{.source = csm::BorrowDatabase(src),
//                                   .target = csm::BorrowDatabase(tgt)};
//   auto r1 = engine.Execute(request);     // builds sessions
//   auto r2 = engine.Execute(request);     // reuses them (cache hit)
//
// One-shot callers use a throwaway engine: MatchEngine(options).Execute(r).
//
// What the engine owns:
//   * the worker pool (options.threads resolved once at construction),
//   * optional Tracer / MetricsRegistry sinks applied to every call,
//   * a session cache keyed by (source, target) content fingerprints:
//     standard-match sessions and their accepted matches are reused across
//     calls on the same data.  Sessions draw no random numbers, so reuse is
//     invisible to the RNG streams — results are bit-identical with a cold
//     or warm cache (determinism_test enforces this).
//
// The engine is not internally synchronized: run one Execute call at a time
// per engine (the call itself parallelizes internally).  The only member
// safe to call concurrently with a running Execute is Cancel().
//
// Deadlines & cancellation: an Execute call can be bounded four ways — a
// wall-clock budget (ContextMatchOptions::deadline_ms), a per-request budget
// (MatchRequest::deadline_ms), a caller-owned CancellationToken passed to
// Execute, or Cancel() invoked from another thread.  All of them degrade the
// run cooperatively instead of aborting it: phases poll the token at
// deterministic checkpoints, drain work already claimed, and the response
// carries whatever completed plus a non-OK status and a completeness tag
// (see DESIGN.md "Failure model, deadlines & degradation").

#ifndef CSM_CORE_MATCH_ENGINE_H_
#define CSM_CORE_MATCH_ENGINE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "core/context_match.h"
#include "core/match_request.h"
#include "core/session_store.h"
#include "exec/thread_pool.h"
#include "match/session.h"
#include "obs/hooks.h"

namespace csm {

class MatchEngine {
 public:
  explicit MatchEngine(ContextMatchOptions options);
  ~MatchEngine();

  MatchEngine(const MatchEngine&) = delete;
  MatchEngine& operator=(const MatchEngine&) = delete;

  /// Runs `request` (mode, stages, per-request deadline) and returns the
  /// single response shape.  A malformed request (null databases,
  /// max_stages == 0) is answered with kInvalidArgument without running.
  ///
  /// `cancel` optionally bounds the run: when the token is cancelled (by
  /// the caller, a parent deadline, or a fault injection) the run degrades
  /// per the per-phase contracts and returns early with a non-OK status.
  /// The token is only read; it must outlive the call.
  /// `request.deadline_ms` layers a budget measured from this call under
  /// the caller's token; options().deadline_ms still applies too —
  /// whichever fires first wins.
  MatchResponse Execute(const MatchRequest& request,
                        const CancellationToken* cancel = nullptr);

  /// Requests cooperative cancellation of the Execute call currently
  /// running on another thread (reason kCaller).  Safe to call from any
  /// thread at any time; a no-op when no call is in flight.  The running
  /// call drains and returns a degraded response with status kCancelled.
  void Cancel();

  /// Optional sinks, applied to every subsequent call.  Null detaches.
  /// The tracer receives the span hierarchy (phases, stages, grid cells,
  /// per-view scoring, pool tasks); the registry accumulates every call's
  /// PhaseReport (a per-call snapshot is always returned on the result).
  /// Sinks must outlive the engine or be detached first.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  void set_metrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }

  /// Attaches a cold session tier (core/session_store.h): on a hot-cache
  /// miss the engine tries to restore the phase-1 sessions from the store
  /// (promoting a hit into the hot LRU) and offers every full build back to
  /// it.  Restored sessions are bit-identical to built ones, so results do
  /// not depend on which tier answered (service_test enforces this).  The
  /// store must outlive the engine or be detached first; null detaches.
  void set_cold_store(SessionColdStore* store) { cold_store_ = store; }

  const ContextMatchOptions& options() const { return options_; }
  /// Resolved worker count (options.threads with 0 = hardware concurrency).
  size_t threads() const { return threads_; }

  /// Session-cache introspection (counts also surface as the
  /// "engine.session_cache_hits"/"engine.session_cache_misses"/
  /// "engine.session_cache_evictions" counters).
  uint64_t session_cache_hits() const { return cache_hits_; }
  uint64_t session_cache_misses() const { return cache_misses_; }
  uint64_t session_cache_evictions() const { return cache_evictions_; }
  /// Cold-tier introspection ("engine.session_cold_hits" /
  /// "engine.session_cold_stores" / "engine.session_cold_invalid" counters).
  uint64_t session_cold_hits() const { return cold_hits_; }
  uint64_t session_cold_stores() const { return cold_stores_; }
  void ClearSessionCache() { session_cache_.clear(); }

 private:
  /// Cached phase-1 output for one (source, target) pair: the per-table
  /// match sessions and their tau-accepted standard matches, in source
  /// table order.
  struct SessionCacheEntry {
    std::vector<std::unique_ptr<TableMatchSession>> sessions;
    std::vector<MatchList> accepted;
    /// Recency tick for LRU eviction: bumped from cache_tick_ on every
    /// lookup that returns this entry.
    uint64_t last_used = 0;
  };

  /// What LookupSessions handed back: the entry plus how many leading
  /// tables actually have sessions.  `valid_tables` only falls short of the
  /// source table count when the build was cancelled or fault-injected
  /// mid-way; such partial entries live in `partial_sessions_`, never in
  /// the cache.
  struct SessionLookup {
    const SessionCacheEntry* entry = nullptr;
    size_t valid_tables = 0;
  };

  /// Returns the cache entry for (source, target), building the sessions
  /// (in parallel, in fixed chunks of tables) on a miss.  `cancel` is
  /// polled between chunks; a cancelled build returns the completed table
  /// prefix and is not cached.  The pointer stays valid for the remainder
  /// of the current call.
  SessionLookup LookupSessions(const Database& source, const Database& target,
                               obs::MetricsRegistry* registry,
                               uint64_t parent_span,
                               const CancellationToken* cancel);

  /// The full staged pipeline behind every Execute mode.
  /// `baseline_only` stops after phase 1 + selection (status OK,
  /// completeness kBaselineOnly) — the brownout/load-shedding answer.
  ContextMatchResult RunPipeline(const Database& source,
                                 const Database& target, size_t max_stages,
                                 bool baseline_only,
                                 const CancellationToken* cancel);

  ContextMatchOptions options_;
  size_t threads_ = 1;
  std::unique_ptr<exec::ThreadPool> pool_;  // null when threads_ == 1
  obs::Tracer* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  SessionColdStore* cold_store_ = nullptr;
  uint64_t cold_hits_ = 0;
  uint64_t cold_stores_ = 0;

  std::map<std::pair<uint64_t, uint64_t>, SessionCacheEntry> session_cache_;
  uint64_t cache_hits_ = 0;
  uint64_t cache_misses_ = 0;
  uint64_t cache_evictions_ = 0;
  /// Monotonic lookup counter feeding SessionCacheEntry::last_used.
  uint64_t cache_tick_ = 0;

  /// Scratch for a cancelled phase-1 build: the completed prefix of
  /// sessions for the *current* call only (overwritten by the next
  /// degraded call, cleared implicitly — never read across calls).
  SessionCacheEntry partial_sessions_;

  /// The in-flight run's cancellation token, registered for the duration
  /// of RunPipeline so Cancel() can reach it from another thread.  The
  /// mutex orders registration/clearing against Cancel(), which keeps the
  /// token (a RunPipeline stack object) alive while being cancelled.
  std::mutex cancel_mu_;
  CancellationToken* active_cancel_ = nullptr;
};

}  // namespace csm

#endif  // CSM_CORE_MATCH_ENGINE_H_
