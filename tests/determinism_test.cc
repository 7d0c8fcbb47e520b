// Bit-identical results across thread counts (DESIGN.md "Threading model &
// determinism"): ContextMatch with threads=N must produce byte-identical
// matches, selected views and scored-pool contents to threads=1, because
// the work decomposition and per-task RNG streams are fixed up front and
// only the scheduling changes.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/fingerprint.h"
#include "common/cancellation.h"
#include "common/fault_injector.h"
#include "core/match_engine.h"
#include "datagen/grades_gen.h"
#include "datagen/retail_gen.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tests/test_util.h"

namespace csm {
namespace {

/// Canonical serialization of everything a run produced — shared with the
/// differential oracles and the golden corpus (src/check/fingerprint.h).
std::string Fingerprint(const ContextMatchResult& r) {
  return check::FingerprintResult(r);
}

std::string RunRetail(uint64_t data_seed, uint64_t match_seed,
                      size_t threads) {
  RetailOptions d;
  d.num_items = 200;
  d.gamma = 2;
  d.seed = data_seed;
  RetailDataset data = MakeRetailDataset(d);
  ContextMatchOptions o;
  o.inference = ViewInferenceKind::kSrcClass;
  o.early_disjuncts = true;
  o.omega = 0.05;
  o.seed = match_seed;
  o.threads = threads;
  const MatchRequest request{.source = BorrowDatabase(data.source),
                             .target = BorrowDatabase(data.target)};
  return Fingerprint(MatchEngine(o).Execute(request).result);
}

std::string RunGrades(uint64_t data_seed, uint64_t match_seed,
                      size_t threads) {
  GradesOptions d;
  d.num_students = 120;
  d.seed = data_seed;
  GradesDataset data = MakeGradesDataset(d);
  ContextMatchOptions o;
  o.tau = 0.45;
  o.omega = 0.025;
  o.early_disjuncts = false;
  o.seed = match_seed;
  o.threads = threads;
  const MatchRequest request{.source = BorrowDatabase(data.source),
                             .target = BorrowDatabase(data.target)};
  return Fingerprint(MatchEngine(o).Execute(request).result);
}

TEST(ThreadDeterminismTest, RetailIdenticalAcrossThreadCounts) {
  for (uint64_t seed : {1u, 7u, 31u}) {
    const std::string serial = RunRetail(seed, seed + 1, /*threads=*/1);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, RunRetail(seed, seed + 1, /*threads=*/2))
        << "threads=2 diverged, seed " << seed;
    EXPECT_EQ(serial, RunRetail(seed, seed + 1, /*threads=*/4))
        << "threads=4 diverged, seed " << seed;
  }
}

TEST(ThreadDeterminismTest, GradesIdenticalAcrossThreadCounts) {
  for (uint64_t seed : {3u, 11u}) {
    const std::string serial = RunGrades(seed, seed + 1, /*threads=*/1);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, RunGrades(seed, seed + 1, /*threads=*/4))
        << "threads=4 diverged, seed " << seed;
  }
}

TEST(ThreadDeterminismTest, HardwareThreadsKnobMatchesSerial) {
  // threads=0 resolves to the hardware concurrency; still identical.
  EXPECT_EQ(RunRetail(5, 6, /*threads=*/1), RunRetail(5, 6, /*threads=*/0));
}

TEST(ThreadDeterminismTest, ReportsThreadsUsed) {
  RetailOptions d;
  d.num_items = 60;
  d.seed = 9;
  RetailDataset data = MakeRetailDataset(d);
  ContextMatchOptions o;
  o.seed = 10;
  o.threads = 3;
  const MatchRequest request{.source = BorrowDatabase(data.source),
                             .target = BorrowDatabase(data.target)};
  ContextMatchResult r = MatchEngine(o).Execute(request).result;
  EXPECT_EQ(r.threads_used, 3u);
  EXPECT_EQ(r.phases.counters.at("source_tables"),
            data.source.tables().size());
}

// ---------------------------------------------------------------------------
// MatchEngine reuse: pooled threads, cached sessions and optional tracing
// only change where state lives — never the work decomposition or the RNG
// streams — so repeated and traced calls must be bit-identical to a fresh
// engine's run.

std::string EngineRunRetail(uint64_t data_seed, uint64_t match_seed,
                            size_t threads, size_t repeats,
                            bool traced = false) {
  RetailOptions d;
  d.num_items = 200;
  d.gamma = 2;
  d.seed = data_seed;
  RetailDataset data = MakeRetailDataset(d);
  ContextMatchOptions o;
  o.inference = ViewInferenceKind::kSrcClass;
  o.early_disjuncts = true;
  o.omega = 0.05;
  o.seed = match_seed;
  o.threads = threads;
  MatchEngine engine(o);
  obs::Tracer tracer;
  if (traced) engine.set_tracer(&tracer);
  const MatchRequest request{.source = BorrowDatabase(data.source),
                             .target = BorrowDatabase(data.target)};
  std::string fingerprint;
  for (size_t i = 0; i < repeats; ++i) {
    // Repeat > 1 exercises the warm session cache.
    fingerprint = Fingerprint(engine.Execute(request).result);
  }
  if (repeats > 1) {
    EXPECT_GE(engine.session_cache_hits(), repeats - 1);
    EXPECT_EQ(engine.session_cache_misses(), 1u);
  }
  return fingerprint;
}

TEST(MatchEngineTest, SessionCacheReuseIsInvisible) {
  const std::string cold = RunRetail(3, 4, /*threads=*/1);
  EXPECT_EQ(cold, EngineRunRetail(3, 4, /*threads=*/1, /*repeats=*/3));
  EXPECT_EQ(cold, EngineRunRetail(3, 4, /*threads=*/4, /*repeats=*/3));
}

TEST(MatchEngineTest, TracingDoesNotChangeResults) {
  const std::string untraced =
      EngineRunRetail(5, 6, /*threads=*/4, /*repeats=*/1, /*traced=*/false);
  const std::string traced =
      EngineRunRetail(5, 6, /*threads=*/4, /*repeats=*/1, /*traced=*/true);
  EXPECT_EQ(untraced, traced);
}

TEST(MatchEngineTest, GradesSessionCacheReuseIsInvisible) {
  GradesOptions d;
  d.num_students = 120;
  d.seed = 3;
  GradesDataset data = MakeGradesDataset(d);
  ContextMatchOptions o;
  o.tau = 0.45;
  o.omega = 0.025;
  o.early_disjuncts = false;
  o.seed = 4;
  o.threads = 2;
  MatchEngine engine(o);
  const MatchRequest request{.source = BorrowDatabase(data.source),
                             .target = BorrowDatabase(data.target)};
  const std::string cold = Fingerprint(engine.Execute(request).result);
  EXPECT_EQ(cold, RunGrades(3, 4, /*threads=*/2));
  EXPECT_EQ(cold, Fingerprint(engine.Execute(request).result));
  EXPECT_EQ(engine.session_cache_hits(), 1u);
}

// ---------------------------------------------------------------------------
// The sample store: sessions share table samples across requests (a pair
// and its reverse, a source table that another session reads too), yet a
// warm engine answers every request exactly as a fresh engine does, at any
// thread count, and ClearSessionCache leaves nothing warm behind.

TEST(MatchEngineTest, SampleStoreSharingIsInvisible) {
  RetailOptions a_options;
  a_options.num_items = 100;
  a_options.gamma = 2;
  a_options.seed = 21;
  const RetailDataset a = MakeRetailDataset(a_options);
  RetailOptions b_options = a_options;
  b_options.seed = 22;
  const RetailDataset b = MakeRetailDataset(b_options);
  GradesOptions g_options;
  g_options.num_students = 60;
  g_options.seed = 23;
  const GradesDataset grades = MakeGradesDataset(g_options);
  // A two-table source: the pair's own source table beside another's.
  Database two("two");
  two.AddTable(a.source.tables()[0]);
  two.AddTable(b.source.tables()[0].Renamed("inventory2"));

  std::vector<MatchRequest> sequence = {
      {.source = BorrowDatabase(a.source), .target = BorrowDatabase(a.target)},
      {.mode = MatchMode::kTargetContext,
       .source = BorrowDatabase(a.source),
       .target = BorrowDatabase(a.target)},
      {.source = BorrowDatabase(two), .target = BorrowDatabase(a.target)},
      {.source = BorrowDatabase(a.source), .target = BorrowDatabase(a.target)},
      {.source = BorrowDatabase(grades.source),
       .target = BorrowDatabase(grades.target)},
  };
  // Store resolutions per pass: the pair builds its 3 tables; the reverse
  // finds all 3 live; the two-table source finds 3 and builds 1; the
  // duplicate hits the session cache; the unrelated pair builds 2.
  constexpr uint64_t kHitsPerPass = 6;
  constexpr uint64_t kMissesPerPass = 6;

  ContextMatchOptions o;
  o.inference = ViewInferenceKind::kSrcClass;
  o.early_disjuncts = true;
  o.omega = 0.05;
  o.seed = 24;
  std::vector<std::string> want;
  for (const MatchRequest& request : sequence) {
    o.threads = 1;
    want.push_back(Fingerprint(MatchEngine(o).Execute(request).result));
    EXPECT_FALSE(want.back().empty());
  }
  for (size_t threads : {1u, 2u, 4u}) {
    o.threads = threads;
    for (size_t k = 0; k < sequence.size(); ++k) {
      MatchEngine fresh(o);
      EXPECT_EQ(Fingerprint(fresh.Execute(sequence[k]).result), want[k])
          << "fresh engine, request " << k << ", threads=" << threads;
      EXPECT_EQ(fresh.sample_store_hits(), 0u);
    }
    MatchEngine engine(o);
    obs::MetricsRegistry metrics;
    engine.set_metrics(&metrics);
    for (uint64_t pass = 1; pass <= 2; ++pass) {
      for (size_t k = 0; k < sequence.size(); ++k) {
        EXPECT_EQ(Fingerprint(engine.Execute(sequence[k]).result), want[k])
            << "pass " << pass << ", request " << k << ", threads=" << threads;
      }
      EXPECT_EQ(engine.sample_store_hits(), pass * kHitsPerPass)
          << "threads=" << threads;
      EXPECT_EQ(engine.sample_store_misses(), pass * kMissesPerPass)
          << "threads=" << threads;
      engine.ClearSessionCache();
    }
    EXPECT_EQ(metrics.Counter("engine.sample_store_hits"), 2 * kHitsPerPass);
    EXPECT_EQ(metrics.Counter("engine.sample_store_misses"),
              2 * kMissesPerPass);
    EXPECT_EQ(engine.session_cache_hits(), 2u);
  }
}

// ---------------------------------------------------------------------------
// Cancellation determinism: a run cancelled at a fixed *logical* point (a
// FaultInjector spec armed on a candidate index) must produce bit-identical
// partial results at any thread count, because degradation is quantized to
// fixed chunk boundaries and a started chunk always completes (DESIGN.md
// "Failure model, deadlines & degradation").

std::string DegradedRunRetail(size_t threads, StatusCode* code,
                              MatchCompleteness* completeness) {
  RetailOptions d;
  d.num_items = 200;
  d.gamma = 2;
  d.seed = 1;
  RetailDataset data = MakeRetailDataset(d);
  ContextMatchOptions o;
  // NaiveInfer yields 8 candidate views on this fixture, so index 7 below
  // is guaranteed to fire during scoring.
  o.inference = ViewInferenceKind::kNaive;
  o.early_disjuncts = true;
  o.omega = 0.05;
  o.seed = 2;
  o.threads = threads;

  CancellationToken token;
  FaultInjector::Arm({.site = "scoring.candidate",
                      .index = 7,
                      .action = FaultInjector::Action::kCancel,
                      .token = &token,
                      .reason = CancelReason::kDeadline});
  const MatchRequest request{.source = BorrowDatabase(data.source),
                             .target = BorrowDatabase(data.target)};
  const ContextMatchResult r = MatchEngine(o).Execute(request, &token).result;
  FaultInjector::DisarmAll();

  *code = r.status.code();
  *completeness = r.completeness;
  return Fingerprint(r);
}

TEST(CancellationDeterminismTest, FixedInjectionPointIsThreadCountInvariant) {
  StatusCode serial_code;
  MatchCompleteness serial_completeness;
  const std::string serial =
      DegradedRunRetail(1, &serial_code, &serial_completeness);
  EXPECT_EQ(serial_code, StatusCode::kDeadlineExceeded);
  EXPECT_NE(serial_completeness, MatchCompleteness::kComplete);
  EXPECT_FALSE(serial.empty());

  for (size_t threads : {2u, 4u}) {
    StatusCode code;
    MatchCompleteness completeness;
    EXPECT_EQ(serial, DegradedRunRetail(threads, &code, &completeness))
        << "degraded run diverged at threads=" << threads;
    EXPECT_EQ(code, serial_code);
    EXPECT_EQ(completeness, serial_completeness);
  }
}

// ---------------------------------------------------------------------------
// Session-cache LRU eviction: a ninth distinct (source, target) pair must
// evict only the least-recently-used entry, not flush the whole cache.  (The
// cache used to clear() wholesale when full, so a working set one pair
// larger than capacity thrashed every previously warm entry to a miss.)

Database TinyDatabase(const std::string& name, int salt) {
  std::vector<Row> rows;
  for (int r = 0; r < 6; ++r) {
    rows.push_back({testing::I(salt * 100 + r),
                    testing::S(r % 2 == 0 ? "alpha" : "beta")});
  }
  Database db(name + std::to_string(salt));
  db.AddTable(testing::MakeTable("items", {"id", "kind"}, rows));
  return db;
}

TEST(MatchEngineTest, SessionCacheEvictsLeastRecentlyUsed) {
  ContextMatchOptions o;
  o.inference = ViewInferenceKind::kNaive;
  o.seed = 1;
  o.threads = 1;
  MatchEngine engine(o);
  obs::MetricsRegistry metrics;
  engine.set_metrics(&metrics);

  const Database target = TinyDatabase("tgt", 999);
  std::vector<Database> sources;
  for (int i = 0; i < 9; ++i) sources.push_back(TinyDatabase("src", i));
  std::vector<MatchRequest> requests;
  for (const Database& source : sources) {
    requests.push_back({.source = BorrowDatabase(source),
                        .target = BorrowDatabase(target)});
  }

  // Fill the cache to capacity (kMaxCachedSessionSets = 8 entries), then
  // touch pairs 1..7 again so pair 0 is the least recently used.
  for (int i = 0; i < 8; ++i) engine.Execute(requests[i]);
  EXPECT_EQ(engine.session_cache_misses(), 8u);
  EXPECT_EQ(engine.session_cache_evictions(), 0u);
  for (int i = 1; i < 8; ++i) engine.Execute(requests[i]);
  EXPECT_EQ(engine.session_cache_hits(), 7u);

  // A ninth distinct pair evicts exactly one entry.
  engine.Execute(requests[8]);
  EXPECT_EQ(engine.session_cache_evictions(), 1u);
  EXPECT_EQ(metrics.Counter("engine.session_cache_evictions"), 1u);

  // The seven retouched pairs and the newcomer are all still warm...
  const uint64_t hits_before = engine.session_cache_hits();
  for (int i = 1; i < 9; ++i) engine.Execute(requests[i]);
  EXPECT_EQ(engine.session_cache_hits(), hits_before + 8);

  // ...and pair 0 was the eviction victim.
  const uint64_t misses_before = engine.session_cache_misses();
  engine.Execute(requests[0]);
  EXPECT_EQ(engine.session_cache_misses(), misses_before + 1);
}

// Malformed requests are answered kInvalidArgument without running.
TEST(MatchEngineTest, ExecuteRejectsMalformedRequests) {
  RetailOptions d;
  d.num_items = 60;
  d.seed = 11;
  RetailDataset data = MakeRetailDataset(d);
  ContextMatchOptions o;
  o.seed = 12;
  MatchEngine engine(o);
  EXPECT_EQ(engine.Execute({}).status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine
                .Execute({.max_stages = 0,
                          .source = BorrowDatabase(data.source),
                          .target = BorrowDatabase(data.target)})
                .status.code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.session_cache_misses(), 0u);
}

}  // namespace
}  // namespace csm
