#include "core/match_engine.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <set>
#include <string>

#include "check/invariants.h"
#include "common/fault_injector.h"
#include "common/logging.h"
#include "exec/parallel.h"
#include "exec/task_rng.h"
#include "match/matchers.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "relational/sample.h"
#include "relational/table_view.h"

namespace csm {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Per-source-table state for one pipeline run: views into the engine's
/// session cache.  Read-only once built, so it can be shared by concurrent
/// scoring tasks.
struct SourceState {
  const Table* sample = nullptr;
  const TableMatchSession* session = nullptr;
  const MatchList* accepted = nullptr;  // standard matches from this table
};

/// Values of `attribute` at the given row positions of `sample`, gathered
/// straight from the column segment (no row materialization).
std::vector<Value> BagAtPositions(const Table& sample, const PosList& rows,
                                  std::string_view attribute) {
  const Column& col = sample.column(sample.schema().AttributeIndex(attribute));
  std::vector<Value> bag;
  bag.reserve(rows.size());
  for (RowId r : rows) bag.push_back(col.GetValue(r));
  return bag;
}

/// Scores of one candidate view, produced on a worker and merged into the
/// ScoredPool by the caller in candidate order.
struct ScoredFragment {
  /// False when no source state matched the candidate's base table (the
  /// view is recorded as a candidate but nothing is scored).
  bool scored = false;
  size_t view_rows = 0;
  MatchList view_matches;
};

/// Scores every accepted match of `state` against `candidate`.
///
/// With placebo correction (see ContextMatchOptions), each pair is also
/// scored on a random row subset of the same cardinality as the view; the
/// confidence shift a *random* shrinkage induces (placebo - base) is
/// subtracted from the view's confidence, so only condition-specific
/// effects remain.
///
/// Pure function of (state, candidate, rng): touches no shared mutable
/// state, so candidates can be scored concurrently.
ScoredFragment ScoreCandidate(const SourceState& state, const View& candidate,
                              bool placebo_correction, Rng& rng) {
  ScoredFragment fragment;
  fragment.scored = true;
  // One restricted sample per source attribute, so each attribute's
  // restriction — and its cached token profiles — is built once per view
  // no matter how many target attributes it is scored against.
  std::map<std::string, AttributeSample> samples;
  std::map<std::string, std::vector<AttributeSample>> placebo_samples;

  // Columnar scan: literal-vs-code comparison per row instead of per-row
  // Evaluate over boxed values.  Positions come back ascending, exactly the
  // order the row-at-a-time loop produced.
  PosList view_rows = candidate.condition().MatchingPositions(*state.sample);
  // The placebo shift is averaged over a few independent draws: one random
  // subset is noisy enough that a spuriously merged view can land inside
  // selection's near-tie band on draw luck alone.  Each draw is a
  // bounded-cost Floyd's sample (relational/sample.h): O(|view|) work per
  // draw instead of the old O(|table|) iota + full shuffle per candidate.
  constexpr size_t kPlaceboDraws = 3;
  std::vector<PosList> placebo_draws;
  if (placebo_correction) {
    placebo_draws.reserve(kPlaceboDraws);
    for (size_t d = 0; d < kPlaceboDraws; ++d) {
      placebo_draws.push_back(SampleRowPositions(state.sample->num_rows(),
                                                 view_rows.size(), rng));
    }
  }

  // View row-count conservation: a condition can only restrict the sample.
  CSM_INVARIANT_LE(view_rows.size(), state.sample->num_rows())
      << candidate.ToString();
  for (const PosList& placebo_rows : placebo_draws) {
    CSM_INVARIANT_EQ(placebo_rows.size(), view_rows.size())
        << candidate.ToString();
  }
  fragment.view_rows = view_rows.size();

  for (const Match& base : *state.accepted) {
    const std::string& attr = base.source.attribute;
    auto it = samples.find(attr);
    if (it == samples.end()) {
      it = samples
               .emplace(attr, state.session->MakeRestrictedSample(
                                  attr,
                                  BagAtPositions(*state.sample, view_rows,
                                                 attr)))
               .first;
    }
    MatchScore ms =
        state.session->ScoreRestrictedSample(it->second, base.target);
    double confidence = ms.confidence;

    if (placebo_correction) {
      auto pit = placebo_samples.find(attr);
      if (pit == placebo_samples.end()) {
        std::vector<AttributeSample> attr_samples;
        attr_samples.reserve(placebo_draws.size());
        for (const PosList& placebo_rows : placebo_draws) {
          attr_samples.push_back(state.session->MakeRestrictedSample(
              attr, BagAtPositions(*state.sample, placebo_rows, attr)));
        }
        pit = placebo_samples.emplace(attr, std::move(attr_samples)).first;
      }
      double placebo_confidence = 0.0;
      for (const AttributeSample& sample : pit->second) {
        placebo_confidence +=
            state.session->ScoreRestrictedSample(sample, base.target)
                .confidence;
      }
      placebo_confidence /= static_cast<double>(pit->second.size());
      confidence = std::clamp(
          confidence - (placebo_confidence - base.confidence), 0.0, 1.0);
    }

    Match conditional = base;
    conditional.condition = candidate.condition();
    conditional.score = ms.score;
    conditional.confidence = confidence;
    fragment.view_matches.push_back(std::move(conditional));
  }
  return fragment;
}

std::string ViewKey(const View& view) {
  return view.base_table() + "\x1d" + view.condition().ToString();
}

/// Bounds the session cache; one entry can hold a full database's score
/// matrices, so the cap is small.  Eviction is least-recently-used, one
/// entry per insertion: wholesale clearing would thrash to a 0% hit rate
/// as soon as a caller alternates among kMaxCachedSessionSets + 1 database
/// pairs, even when most of them are re-touched every cycle.
constexpr size_t kMaxCachedSessionSets = 8;

/// Degradation quanta: cancellation is only observed at fixed chunk
/// boundaries (exec::CancellableChunkedMap), so a degraded run's partial
/// output is always a whole number of chunks — a deterministic prefix when
/// the cancellation point itself is deterministic (fault injection on a
/// logical index), and a well-formed one in every case (wall-clock
/// deadlines, Cancel() from another thread).
constexpr size_t kSessionChunk = 8;   // phase 1: tables per chunk
constexpr size_t kScoringChunk = 16;  // phase 2: candidate views per chunk

/// Detaches the pool's observability sinks on scope exit, so a per-call
/// registry never outlives its attachment even on an exceptional unwind.
class PoolObsGuard {
 public:
  explicit PoolObsGuard(exec::ThreadPool* pool) : pool_(pool) {}
  ~PoolObsGuard() {
    if (pool_ != nullptr) pool_->SetObservability(nullptr, nullptr);
  }
  PoolObsGuard(const PoolObsGuard&) = delete;
  PoolObsGuard& operator=(const PoolObsGuard&) = delete;

 private:
  exec::ThreadPool* pool_;
};

}  // namespace

MatchEngine::MatchEngine(ContextMatchOptions options)
    : options_(std::move(options)),
      threads_(exec::EffectiveThreads(options_.threads)) {
  // threads_ == 1 keeps the serial path (no pool; ParallelFor/Map run
  // inline).  The work decomposition and RNG streams are the same either
  // way, so results are bit-identical at any thread count.
  if (threads_ > 1) pool_ = std::make_unique<exec::ThreadPool>(threads_);
}

MatchEngine::~MatchEngine() = default;

MatchResponse MatchEngine::Execute(const MatchRequest& request,
                                   const CancellationToken* cancel) {
  MatchResponse response;
  if (request.source == nullptr || request.target == nullptr) {
    response.status =
        Status::InvalidArgument("request needs source and target databases");
    response.completeness = MatchCompleteness::kBaselineOnly;
    return response;
  }
  if (request.max_stages < 1) {
    response.status = Status::InvalidArgument("max_stages must be >= 1");
    response.completeness = MatchCompleteness::kBaselineOnly;
    return response;
  }

  // Per-request budget: a token layered between the caller's token and the
  // run's own (which still adds options().deadline_ms).  Only created when
  // needed, so deadline-free requests keep the exact legacy token chain.
  CancellationToken request_cancel;
  const CancellationToken* effective = cancel;
  if (request.deadline_ms > 0) {
    request_cancel.set_deadline(Deadline::AfterMillis(request.deadline_ms));
    request_cancel.set_parent(cancel);
    effective = &request_cancel;
  }

  switch (request.mode) {
    case MatchMode::kContext:
      response.result = RunPipeline(*request.source, *request.target,
                                    /*max_stages=*/1, request.baseline_only,
                                    effective);
      break;
    case MatchMode::kConjunctive:
      response.result =
          RunPipeline(*request.source, *request.target, request.max_stages,
                      request.baseline_only, effective);
      break;
    case MatchMode::kTargetContext: {
      // Reverse the roles: conditions are inferred on the target's tables,
      // then every match is flipped back into source -> target orientation.
      response.result = RunPipeline(*request.target, *request.source,
                                    /*max_stages=*/1, request.baseline_only,
                                    effective);
      for (const Match& reversed_match : response.result.matches) {
        Match flipped;
        flipped.source = reversed_match.target;
        flipped.target = reversed_match.source;
        flipped.condition = reversed_match.condition;
        flipped.condition_on_target = !reversed_match.condition.is_true();
        flipped.score = reversed_match.score;
        flipped.confidence = reversed_match.confidence;
        response.matches.push_back(std::move(flipped));
      }
      response.selected_views = response.result.selected_views;
      response.status = response.result.status;
      response.completeness = response.result.completeness;
      return response;
    }
  }

  response.matches = response.result.matches;
  response.selected_views = response.result.selected_views;
  response.status = response.result.status;
  response.completeness = response.result.completeness;
  return response;
}

void MatchEngine::Cancel() {
  std::lock_guard<std::mutex> lock(cancel_mu_);
  if (active_cancel_ != nullptr) {
    active_cancel_->Cancel(CancelReason::kCaller);
  }
}

MatchEngine::SessionLookup MatchEngine::LookupSessions(
    const Database& source, const Database& target,
    obs::MetricsRegistry* registry, uint64_t parent_span,
    const CancellationToken* cancel) {
  const auto key = std::make_pair(FingerprintDatabase(source),
                                  FingerprintDatabase(target));
  auto it = session_cache_.find(key);
  if (it != session_cache_.end()) {
    ++cache_hits_;
    it->second.last_used = ++cache_tick_;
    registry->AddCounter("engine.session_cache_hits");
    return SessionLookup{&it->second, it->second.sessions.size()};
  }
  ++cache_misses_;
  registry->AddCounter("engine.session_cache_misses");
  if (session_cache_.size() >= kMaxCachedSessionSets) {
    // Evict the least-recently-used entry (the cache holds at most 8
    // entries, so a linear scan over the recency ticks is fine).
    auto victim = session_cache_.begin();
    for (auto cand = session_cache_.begin(); cand != session_cache_.end();
         ++cand) {
      if (cand->second.last_used < victim->second.last_used) victim = cand;
    }
    session_cache_.erase(victim);
    ++cache_evictions_;
    registry->AddCounter("engine.session_cache_evictions");
  }

  // Cold tier: on a hot miss, try to restore the sessions from the attached
  // store before paying for a build.  The cold key folds in the options
  // fingerprint (the hot key need not: one engine has one options value)
  // and a format-version constant so stale blobs never cross a change.
  uint64_t cold_key = 0;
  if (cold_store_ != nullptr) {
    cold_key = MixFingerprint(0x636f6c642d763101ULL, key.first);  // "cold-v1"
    cold_key = MixFingerprint(cold_key, key.second);
    cold_key = MixFingerprint(cold_key, FingerprintMatchOptions(options_.match));
  }
  const auto& tables = source.tables();
  if (cold_store_ != nullptr) {
    std::string blob;
    if (cold_store_->Load(cold_key, &blob)) {
      auto parsed = ParseSessionScores(blob, source);
      bool usable = parsed.ok();
      if (usable) {
        // Validate dimensions before constructing: the restore constructor
        // CHECK-fails on a mismatch, and a cold blob is untrusted input.
        const size_t matchers = DefaultMatcherSuite().size();
        size_t target_attrs = 0;
        for (const Table& t : target.tables()) {
          target_attrs += t.schema().num_attributes();
        }
        for (size_t i = 0; i < tables.size() && usable; ++i) {
          const auto& raw = parsed.value()[i].raw;
          if (raw.size() != matchers) usable = false;
          for (const auto& per_source : raw) {
            if (per_source.size() != tables[i].schema().num_attributes()) {
              usable = false;
              break;
            }
            for (const auto& per_target : per_source) {
              if (per_target.size() != target_attrs) {
                usable = false;
                break;
              }
            }
            if (!usable) break;
          }
        }
      }
      if (usable) {
        // Restore serially (cheap: no scoring loop), honoring the same
        // cancellation and fault-injection surface as a build so degraded
        // runs behave identically whichever tier answers.
        SessionCacheEntry entry;
        size_t restored = 0;
        for (size_t i = 0; i < tables.size(); ++i) {
          if (cancel != nullptr && cancel->cancelled()) break;
          if (FaultInjector::Hit("standard.session", i)) break;
          auto session = std::make_unique<TableMatchSession>(
              tables[i], target, DefaultMatcherSuite(), options_.match,
              std::move(parsed.value()[i]));
          entry.accepted.push_back(session->AcceptedMatches(options_.tau));
          entry.sessions.push_back(std::move(session));
          ++restored;
        }
        if (restored == tables.size()) {
          ++cold_hits_;
          registry->AddCounter("engine.session_cold_hits");
          entry.last_used = ++cache_tick_;
          return SessionLookup{
              &session_cache_.emplace(key, std::move(entry)).first->second,
              restored};
        }
        // Cancelled / fault-injected mid-restore: same contract as a
        // partial build — usable prefix for this call, never cached.
        partial_sessions_ = std::move(entry);
        return SessionLookup{&partial_sessions_, restored};
      }
      registry->AddCounter("engine.session_cold_invalid");
    }
  }

  // Build per-table sessions concurrently in fixed chunks of kSessionChunk
  // tables; `cancel` is consulted only between chunks, so a degraded build
  // yields a whole-chunk table prefix.  Session construction and
  // AcceptedMatches draw no random numbers, and results land in table
  // order, so warm-cache runs are bit-identical to cold ones.
  obs::Tracer* tracer = tracer_;
  struct Built {
    std::unique_ptr<TableMatchSession> session;
    MatchList accepted;
  };
  exec::ChunkedMapCut cut;
  std::vector<Built> built = exec::CancellableChunkedMap(
      pool_.get(), tables.size(), kSessionChunk, cancel, &cut, [&](size_t i) {
        Built b;
        // Fault site "standard.session" (index = source table index).  A
        // kFail arm leaves this table's session null, truncating the
        // usable prefix below.
        if (FaultInjector::Hit("standard.session", i)) return b;
        std::string span_name;
        if (tracer != nullptr) span_name = "session:" + tables[i].name();
        obs::ScopedSpan span(tracer, span_name, parent_span);
        const auto start = Clock::now();
        b.session = std::make_unique<TableMatchSession>(
            tables[i], target, DefaultMatcherSuite(), options_.match);
        b.accepted = b.session->AcceptedMatches(options_.tau);
        registry->Observe("standard.session_seconds", SecondsSince(start));
        return b;
      });
  // Keep the longest prefix of consecutively built sessions; a fault-failed
  // table ends it even when later tables finished.
  size_t valid = 0;
  while (valid < built.size() && built[valid].session != nullptr) ++valid;

  SessionCacheEntry entry;
  entry.sessions.reserve(valid);
  entry.accepted.reserve(valid);
  for (size_t i = 0; i < valid; ++i) {
    entry.sessions.push_back(std::move(built[i].session));
    entry.accepted.push_back(std::move(built[i].accepted));
  }
  if (valid == tables.size()) {
    // Offer every complete fresh build to the cold tier (a cold hit never
    // re-stores: the blob it read is already the one it would write).
    if (cold_store_ != nullptr) {
      if (cold_store_->Store(cold_key, SerializeSessionScores(entry.sessions))) {
        ++cold_stores_;
        registry->AddCounter("engine.session_cold_stores");
      }
    }
    entry.last_used = ++cache_tick_;
    return SessionLookup{
        &session_cache_.emplace(key, std::move(entry)).first->second, valid};
  }
  // Partial build: usable for this call's degraded result but never cached
  // (a later call must rebuild the full set).
  partial_sessions_ = std::move(entry);
  return SessionLookup{&partial_sessions_, valid};
}

ContextMatchResult MatchEngine::RunPipeline(const Database& source,
                                            const Database& target,
                                            size_t max_stages,
                                            bool baseline_only,
                                            const CancellationToken* cancel) {
  CSM_CHECK_GE(max_stages, 1u);
  // Brownout / cheap-answer mode: phase 1 and selection only.  Zero stages
  // makes the stage loop a no-op and the baseline-selection branch below
  // the only selection pass.
  if (baseline_only) max_stages = 0;
  ContextMatchResult result;
  result.threads_used = threads_;

  // The run's own token: fed by the options deadline, the caller's token
  // (as parent) and Cancel() from another thread — whichever fires first.
  CancellationToken run_cancel;
  if (options_.deadline_ms > 0) {
    run_cancel.set_deadline(Deadline::AfterMillis(options_.deadline_ms));
  }
  run_cancel.set_parent(cancel);
  {
    std::lock_guard<std::mutex> lock(cancel_mu_);
    active_cancel_ = &run_cancel;
  }
  struct ActiveCancelGuard {
    MatchEngine* engine;
    ~ActiveCancelGuard() {
      std::lock_guard<std::mutex> lock(engine->cancel_mu_);
      engine->active_cancel_ = nullptr;
    }
  } active_cancel_guard{this};

  // Phase name the run was first observed cancelled in; empty while the
  // run is healthy.  Every phase boundary funnels through CheckCancelled.
  std::string cancelled_phase;
  auto CheckCancelled = [&](const char* phase) {
    if (cancelled_phase.empty() && run_cancel.cancelled()) {
      cancelled_phase = phase;
    }
    return !cancelled_phase.empty();
  };

  // Per-call registry: phase seconds, work counters and latency histograms
  // all aggregate here; a snapshot becomes result.phases and the contents
  // fold into the engine's long-lived sink (if any) at the end.
  obs::MetricsRegistry registry;
  obs::Tracer* tracer = tracer_;
  exec::ThreadPool* pool = pool_.get();
  PoolObsGuard pool_obs_guard(pool);
  if (pool != nullptr) pool->SetObservability(&registry, tracer);

  Rng rng(options_.seed);
  std::unique_ptr<ViewInference> inference =
      MakeViewInference(options_.inference, options_);

  {
    obs::ScopedSpan root(tracer, "ContextMatch");

    // Phase 1: standard match per source table (cached across calls).
    // Degradation contract: cancellation here leaves the run with the
    // completed prefix of tables' sessions — their accepted matches are the
    // whole baseline, no contextual stages run (kBaselineOnly).
    std::vector<SourceState> states;
    {
      obs::ScopedSpan phase(tracer, "standard_match");
      auto start = Clock::now();
      SessionLookup sessions =
          LookupSessions(source, target, &registry, phase.id(), &run_cancel);
      const auto& tables = source.tables();
      states.resize(sessions.valid_tables);
      for (size_t i = 0; i < sessions.valid_tables; ++i) {
        states[i].sample = &tables[i];
        states[i].session = sessions.entry->sessions[i].get();
        states[i].accepted = &sessions.entry->accepted[i];
      }
      for (const SourceState& state : states) {
        for (const Match& m : *state.accepted) {
          result.pool.base_matches.push_back(m);
        }
        registry.AddCounter("base_matches", state.accepted->size());
      }
      // Phase-1 post-conditions: the usable prefix never exceeds the source
      // table count, and every accepted base match is a standard match with
      // a normalized confidence.
      CSM_INVARIANT_LE(states.size(), tables.size());
      if constexpr (check::kInvariantsEnabled) {
        for (const Match& m : result.pool.base_matches) {
          CSM_INVARIANT(m.is_standard()) << m.ToString();
          CSM_INVARIANT_GE(m.confidence, 0.0) << m.ToString();
          CSM_INVARIANT_LE(m.confidence, 1.0) << m.ToString();
        }
      }
      registry.AddCounter("source_tables", states.size());
      registry.AddSeconds("standard_match", SecondsSince(start));
      // A short prefix without a cancelled token means a fault injection
      // failed a session outright; still a degraded phase-1 run.
      if (sessions.valid_tables < tables.size() && cancelled_phase.empty()) {
        cancelled_phase = "standard_match";
      }
      CheckCancelled("standard_match");
    }

    // Phase 2 (per stage): infer candidate views, then score the
    // conditional version of every accepted match.
    std::set<std::string> scored_keys;  // views already scored (any stage)
    // Stage 1 bases: the source tables themselves (condition "true").
    struct StageBase {
      size_t state_index;
      Condition condition;  // accumulated condition (true at stage 1)
    };
    std::vector<StageBase> stage_bases;
    for (size_t i = 0; i < states.size(); ++i) {
      stage_bases.push_back(StageBase{i, Condition::True()});
    }

    SelectionResult selection;
    for (size_t stage = 0; cancelled_phase.empty() && stage < max_stages;
         ++stage) {
      obs::ScopedSpan stage_span(tracer, "stage:" + std::to_string(stage));
      std::vector<CandidateView> stage_candidates;
      {
        obs::ScopedSpan phase(tracer, "inference");
        auto start = Clock::now();
        for (const StageBase& base : stage_bases) {
          // Drain between tables once cancelled; the whole stage's
          // candidates are discarded below, this only shortens the wait.
          if (run_cancel.cancelled()) break;
          const SourceState& state = states[base.state_index];
          if (state.accepted->empty()) continue;

          // The inference input: the whole base table at stage 1, the
          // stage condition's row positions afterwards — a zero-copy view
          // over the same sample either way (no materialized table).
          TableView infer_view(*state.sample);
          if (!base.condition.is_true()) {
            infer_view = TableView(
                *state.sample,
                base.condition.MatchingPositions(*state.sample));
          }

          InferenceInput input;
          input.source_sample = infer_view;
          input.target_sample = &target;
          input.matches = state.accepted;
          input.early_disjuncts = options_.early_disjuncts;
          input.excluded_partition_attributes =
              base.condition.MentionedAttributes();
          input.pool = pool;  // classifier grid trains concurrently
          input.obs.tracer = tracer;
          input.obs.metrics = &registry;
          input.obs.parent_span = phase.id();
          input.cancel = &run_cancel;

          for (CandidateView& candidate :
               inference->InferCandidateViews(input, rng)) {
            // Conjoin with the stage's accumulated condition.
            if (!base.condition.is_true()) {
              View conjoined(
                  candidate.view.name(), candidate.view.base_table(),
                  base.condition.Conjoin(candidate.view.condition()));
              candidate.view = conjoined;
            }
            if (scored_keys.insert(ViewKey(candidate.view)).second) {
              stage_candidates.push_back(std::move(candidate));
            }
          }
        }
        registry.AddSeconds("inference", SecondsSince(start));
      }
      // Degradation contract: a stage cancelled during inference discards
      // ALL of its candidates — partially inferred grids are schedule-
      // dependent, so none of them may leak into the pool.  Earlier,
      // fully completed stages keep their scored views.
      if (CheckCancelled("inference")) break;
      if (stage_candidates.empty()) break;

      {
        obs::ScopedSpan phase(tracer, "scoring");
        auto start = Clock::now();
        // All candidates score concurrently: candidate i gets its own RNG
        // stream split off one sequential draw, and the fragments are
        // merged in candidate order, so the pool is byte-identical to a
        // serial run.  Cancellation is observed only between fixed chunks
        // of kScoringChunk candidates (a started chunk always completes),
        // so a degraded run's pool is the completed whole-chunk prefix —
        // the same prefix at any thread count.
        const uint64_t scoring_seed = rng.Next();
        exec::ChunkedMapCut cut;
        std::vector<ScoredFragment> fragments = exec::CancellableChunkedMap(
            pool, stage_candidates.size(), kScoringChunk, &run_cancel, &cut,
            [&](size_t i) {
              const View& view = stage_candidates[i].view;
              // Fault site "scoring.candidate" (index = candidate index in
              // stage order).  A kFail arm leaves just this fragment
              // unscored; the run itself continues.
              if (FaultInjector::Hit("scoring.candidate", i)) {
                return ScoredFragment{};
              }
              std::string span_name;
              if (tracer != nullptr) span_name = "score:" + view.name();
              // Implicit parent: the worker's pool-task span (itself under
              // this scoring phase), or the phase span on the inline path.
              obs::ScopedSpan span(tracer, span_name);
              const auto view_start = Clock::now();
              ScoredFragment fragment;
              for (const SourceState& state : states) {
                if (state.sample->name() != view.base_table()) continue;
                Rng task_rng = exec::TaskRng(scoring_seed, i);
                fragment = ScoreCandidate(state, view,
                                          options_.placebo_correction,
                                          task_rng);
                break;
              }
              registry.Observe("scoring.view_seconds",
                               SecondsSince(view_start));
              return fragment;
            });
        // Merge only the completed prefix; candidates past the cut are
        // neither scored nor recorded (counters stay thread-count
        // independent because the cut lands on a chunk boundary).
        CSM_INVARIANT_LE(fragments.size(), stage_candidates.size());
        for (size_t i = 0; i < fragments.size(); ++i) {
          ScoredFragment& fragment = fragments[i];
          const View& view = stage_candidates[i].view;
          if (fragment.scored) {
            result.pool.view_row_counts[ViewKey(view)] = fragment.view_rows;
            registry.AddCounter("view_matches", fragment.view_matches.size());
            for (Match& m : fragment.view_matches) {
              result.pool.view_matches.push_back(std::move(m));
            }
          }
          result.pool.candidate_views.push_back(view);
        }
        registry.AddCounter("candidate_views", fragments.size());
        registry.AddSeconds("scoring", SecondsSince(start));
        CheckCancelled("scoring");
      }

      // Phase 3: selection over everything scored so far.  Selection is
      // cheap and bounded by the pool size, so it always runs — even on a
      // degraded run it distills the partial pool into the best answer.
      {
        obs::ScopedSpan phase(tracer, "selection");
        auto start = Clock::now();
        selection = SelectContextualMatches(result.pool, options_);
        registry.AddSeconds("selection", SecondsSince(start));
      }

      if (!cancelled_phase.empty()) break;
      if (stage + 1 >= max_stages) break;

      // Next stage: the selected views become base "tables".
      std::vector<StageBase> next_bases;
      for (const View& view : selection.selected_views) {
        for (size_t i = 0; i < states.size(); ++i) {
          if (states[i].sample->name() == view.base_table()) {
            next_bases.push_back(StageBase{i, view.condition()});
          }
        }
      }
      if (next_bases.empty()) break;
      stage_bases = std::move(next_bases);
    }

    // If no stage produced candidates, still run selection for base matches.
    if (selection.matches.empty() && selection.selected_views.empty()) {
      obs::ScopedSpan phase(tracer, "selection");
      auto start = Clock::now();
      selection = SelectContextualMatches(result.pool, options_);
      registry.AddSeconds("selection", SecondsSince(start));
    }

    result.matches = std::move(selection.matches);
    result.selected_views = std::move(selection.selected_views);

    // A healthy baseline-only run is a *successful* degraded answer: the
    // caller (or the service's brownout) asked for exactly this much.
    if (baseline_only && cancelled_phase.empty()) {
      result.completeness = MatchCompleteness::kBaselineOnly;
      registry.AddCounter("engine.baseline_only_runs");
    }

    // Pipeline post-conditions: selection can only pick views that were
    // actually scored as candidates, and every recorded view row count is
    // conserved (bounded by its base table's sample size).
    if constexpr (check::kInvariantsEnabled) {
      std::set<std::string> candidate_keys;
      for (const View& v : result.pool.candidate_views) {
        candidate_keys.insert(ViewKey(v));
      }
      for (const View& v : result.selected_views) {
        CSM_INVARIANT(candidate_keys.count(ViewKey(v)) == 1) << v.ToString();
      }
      for (const SourceState& state : states) {
        for (const View& v : result.pool.candidate_views) {
          if (v.base_table() != state.sample->name()) continue;
          auto rows_it = result.pool.view_row_counts.find(ViewKey(v));
          if (rows_it == result.pool.view_row_counts.end()) continue;
          CSM_INVARIANT_LE(rows_it->second, state.sample->num_rows())
              << v.ToString();
        }
      }
    }

    if (!cancelled_phase.empty()) {
      // Completeness: contextual matches present means at least one whole
      // scoring chunk finished (kPartialViews); none means the run never
      // got past the baseline (kBaselineOnly).
      result.completeness = result.pool.view_matches.empty()
                                ? MatchCompleteness::kBaselineOnly
                                : MatchCompleteness::kPartialViews;
      switch (run_cancel.reason()) {
        case CancelReason::kDeadline:
          result.status = Status::DeadlineExceeded(
              "deadline expired during " + cancelled_phase);
          break;
        case CancelReason::kCaller:
          result.status =
              Status::Cancelled("cancelled by caller during " +
                                cancelled_phase);
          break;
        default:  // kFault, or a fault-failed unit without a cancelled token
          result.status =
              Status::Internal("injected fault during " + cancelled_phase);
          break;
      }
      registry.AddCounter("engine.cancelled");
      registry.AddCounter("cancelled." + cancelled_phase);
      if (!result.matches.empty()) {
        registry.AddCounter("engine.degraded_results");
      }
      // Zero-length marker span so traces show where the run was cut.
      obs::ScopedSpan marker(tracer, "cancelled:" + cancelled_phase,
                             root.id());
    }
  }  // root span closes here, before the snapshot

  if (pool != nullptr) pool->SetObservability(nullptr, nullptr);
  result.phases = registry.Snapshot();
  if (metrics_ != nullptr) metrics_->MergeFrom(registry);
  return result;
}

}  // namespace csm
