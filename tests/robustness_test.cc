// The failure-model contracts (DESIGN.md "Failure model, deadlines &
// degradation"): deadlines, caller cancellation, and injected faults must
// degrade an Execute run — never corrupt it.  A degraded run returns the
// standard-match baseline plus every contextual view that was fully
// scored, a non-OK status naming the phase, and a completeness tag.
//
// All cancellation tests run through the FaultInjector sites so the
// degradation point is a deterministic function of the logical work (see
// common/fault_injector.h); the one wall-clock test only asserts structure
// and relative timing, keeping it meaningful under TSan's slowdown.

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/cancellation.h"
#include "common/fault_injector.h"
#include "core/match_engine.h"
#include "datagen/grades_gen.h"
#include "datagen/retail_gen.h"
#include "tests/test_util.h"

namespace csm {
namespace {

using testing::I;
using testing::MakeTable;
using testing::S;

class RobustnessTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::DisarmAll(); }

  static RetailDataset Data() {
    RetailOptions d;
    d.num_items = 200;
    d.gamma = 2;
    d.seed = 1;
    return MakeRetailDataset(d);
  }

  /// SrcClassInfer options: exercise the classifier grid (and its
  /// "inference.cell" fault site).
  static ContextMatchOptions Options(size_t threads) {
    ContextMatchOptions o;
    o.inference = ViewInferenceKind::kSrcClass;
    o.early_disjuncts = true;
    o.omega = 0.05;
    o.seed = 2;
    o.threads = threads;
    return o;
  }

  /// NaiveInfer options: produce enough candidate views (8 on the Retail
  /// fixture) for the "scoring.candidate" site to have indices to fire on.
  static ContextMatchOptions NaiveOptions(size_t threads) {
    ContextMatchOptions o = Options(threads);
    o.inference = ViewInferenceKind::kNaive;
    return o;
  }

  static double RunSeconds(MatchEngine& engine, const MatchRequest& request,
                           ContextMatchResult* out) {
    const auto start = std::chrono::steady_clock::now();
    *out = engine.Execute(request).result;
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  }
};

TEST_F(RobustnessTest, CleanRunIsComplete) {
  RetailDataset data = Data();
  const MatchRequest request{.source = BorrowDatabase(data.source),
                             .target = BorrowDatabase(data.target)};
  MatchEngine engine(NaiveOptions(2));
  ContextMatchResult r = engine.Execute(request).result;
  EXPECT_TRUE(r.status.ok());
  EXPECT_EQ(r.completeness, MatchCompleteness::kComplete);
  EXPECT_FALSE(r.pool.base_matches.empty());
  // The reference workload must actually have contextual work to cut short,
  // or the degradation tests below would pass vacuously.
  ASSERT_GE(r.pool.candidate_views.size(), 8u);
  EXPECT_FALSE(r.pool.view_matches.empty());
  EXPECT_EQ(r.phases.counters.count("engine.cancelled"), 0u);
}

TEST_F(RobustnessTest, WallClockDeadlineDegradesAndReturnsEarly) {
  RetailDataset data = Data();
  const MatchRequest request{.source = BorrowDatabase(data.source),
                             .target = BorrowDatabase(data.target)};

  // Inflate the classifier grid with a 10ms sleep per cell so the workload
  // durably exceeds the deadline.  kSleep never changes results, only time.
  FaultInjector::Arm({.site = "inference.cell",
                      .action = FaultInjector::Action::kSleep,
                      .sleep_ms = 10,
                      .fire_limit = 0});

  ContextMatchResult full;
  MatchEngine slow_engine(Options(1));
  const double full_seconds =
      RunSeconds(slow_engine, request, &full);
  ASSERT_TRUE(full.status.ok());

  ContextMatchOptions bounded = Options(1);
  bounded.deadline_ms = 60;
  MatchEngine engine(bounded);
  ContextMatchResult r;
  const double degraded_seconds =
      RunSeconds(engine, request, &r);

  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded) << r.status;
  EXPECT_NE(r.completeness, MatchCompleteness::kComplete);
  // The baseline survives: phase 1 runs before the deadline can fire.
  EXPECT_FALSE(r.pool.base_matches.empty());
  EXPECT_EQ(r.pool.base_matches.size(), full.pool.base_matches.size());
  // Degrading must actually save time; an absolute bound would be flaky
  // under sanitizers, the full run is the honest yardstick.
  EXPECT_LT(degraded_seconds, full_seconds);
  EXPECT_GE(r.phases.counters.at("engine.cancelled"), 1u);
}

TEST_F(RobustnessTest, InjectedDeadlineDuringScoringKeepsScoredPrefix) {
  RetailDataset data = Data();
  const MatchRequest request{.source = BorrowDatabase(data.source),
                             .target = BorrowDatabase(data.target)};
  CancellationToken token;
  FaultInjector::Arm({.site = "scoring.candidate",
                      .index = 5,
                      .action = FaultInjector::Action::kCancel,
                      .token = &token,
                      .reason = CancelReason::kDeadline});

  MatchEngine engine(NaiveOptions(2));
  ContextMatchResult r = engine.Execute(request, &token).result;

  EXPECT_EQ(FaultInjector::FireCount("scoring.candidate"), 1u);
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded) << r.status;
  EXPECT_NE(r.status.message().find("scoring"), std::string::npos)
      << r.status;
  // Candidate 5 is in the first scoring chunk, which completes; at least
  // that chunk's matches are in the pool.
  EXPECT_EQ(r.completeness, MatchCompleteness::kPartialViews);
  EXPECT_FALSE(r.pool.view_matches.empty());
  EXPECT_FALSE(r.pool.base_matches.empty());
  EXPECT_GE(r.phases.counters.at("engine.cancelled"), 1u);
  EXPECT_GE(r.phases.counters.at("cancelled.scoring"), 1u);
  if (!r.matches.empty()) {
    EXPECT_GE(r.phases.counters.at("engine.degraded_results"), 1u);
  }
}

TEST_F(RobustnessTest, CancelDuringIndexBuildScoresNoCandidate) {
  RetailDataset data = Data();
  const MatchRequest request{.source = BorrowDatabase(data.source),
                             .target = BorrowDatabase(data.target)};
  for (size_t threads : {1, 4}) {
    MatchEngine clean_engine(NaiveOptions(threads));
    ContextMatchResult clean = clean_engine.Execute(request).result;
    ASSERT_TRUE(clean.status.ok());

    CancellationToken token;
    FaultInjector::Arm({.site = "scoring.index",
                        .index = 0,
                        .action = FaultInjector::Action::kCancel,
                        .token = &token,
                        .reason = CancelReason::kDeadline});
    // A zero-length sleep on every build counts the builds that started.
    FaultInjector::Arm({.site = "scoring.index",
                        .action = FaultInjector::Action::kSleep,
                        .fire_limit = 0});
    MatchEngine engine(NaiveOptions(threads));
    ContextMatchResult r = engine.Execute(request, &token).result;
    // Builds poll the token before they start: on one thread, the build
    // that cancels is the last one (its two fires: cancel and count).
    if (threads == 1) {
      EXPECT_EQ(FaultInjector::FireCount("scoring.index"), 2u);
    } else {
      EXPECT_GE(FaultInjector::FireCount("scoring.index"), 2u);
    }
    FaultInjector::DisarmAll();

    EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded) << r.status;
    EXPECT_NE(r.status.message().find("scoring"), std::string::npos)
        << r.status;
    // A deadline that lands while the token indexes are built stops the
    // phase before its first chunk: the baseline and nothing else.
    EXPECT_EQ(r.completeness, MatchCompleteness::kBaselineOnly);
    EXPECT_TRUE(r.pool.candidate_views.empty());
    EXPECT_TRUE(r.pool.view_matches.empty());
    EXPECT_EQ(r.pool.base_matches.size(), clean.pool.base_matches.size());
    EXPECT_GE(r.phases.counters.at("cancelled.scoring"), 1u);
  }
}

TEST_F(RobustnessTest, CancelDuringInferenceDiscardsTheStage) {
  RetailDataset data = Data();
  const MatchRequest request{.source = BorrowDatabase(data.source),
                             .target = BorrowDatabase(data.target)};

  MatchEngine clean_engine(Options(2));
  ContextMatchResult clean = clean_engine.Execute(request).result;
  ASSERT_TRUE(clean.status.ok());

  CancellationToken token;
  FaultInjector::Arm({.site = "inference.cell",
                      .index = 0,
                      .action = FaultInjector::Action::kCancel,
                      .token = &token,
                      .reason = CancelReason::kCaller});

  MatchEngine engine(Options(2));
  ContextMatchResult r = engine.Execute(request, &token).result;

  EXPECT_EQ(r.status.code(), StatusCode::kCancelled) << r.status;
  EXPECT_NE(r.status.message().find("inference"), std::string::npos);
  // Contract: a stage cancelled during inference contributes nothing — the
  // result is the full baseline and only the baseline.
  EXPECT_EQ(r.completeness, MatchCompleteness::kBaselineOnly);
  EXPECT_TRUE(r.pool.view_matches.empty());
  EXPECT_TRUE(r.pool.candidate_views.empty());
  EXPECT_EQ(r.pool.base_matches.size(), clean.pool.base_matches.size());
  EXPECT_GE(r.phases.counters.at("cancelled.inference"), 1u);
}

TEST_F(RobustnessTest, InjectedTaskFailureDegradesWithInternalStatus) {
  RetailDataset data = Data();
  const MatchRequest request{.source = BorrowDatabase(data.source),
                             .target = BorrowDatabase(data.target)};
  CancellationToken token;
  FaultInjector::Arm({.site = "scoring.candidate",
                      .index = 2,
                      .action = FaultInjector::Action::kFail,
                      .token = &token});

  MatchEngine engine(NaiveOptions(2));
  ContextMatchResult r = engine.Execute(request, &token).result;

  // The run completes (no crash, no hang) but reports the fault.
  EXPECT_EQ(r.status.code(), StatusCode::kInternal) << r.status;
  EXPECT_NE(r.completeness, MatchCompleteness::kComplete);
  EXPECT_FALSE(r.pool.base_matches.empty());
  // The failed candidate is recorded (its chunk completed) but unscored.
  EXPECT_GE(r.pool.candidate_views.size(), 3u);
}

TEST_F(RobustnessTest, EngineCancelFromAnotherThread) {
  RetailDataset data = Data();
  const MatchRequest request{.source = BorrowDatabase(data.source),
                             .target = BorrowDatabase(data.target)};

  // Slow the grid down so the run is still in flight when Cancel() lands.
  FaultInjector::Arm({.site = "inference.cell",
                      .action = FaultInjector::Action::kSleep,
                      .sleep_ms = 10,
                      .fire_limit = 0});

  MatchEngine engine(Options(2));
  ContextMatchResult r;
  std::thread runner(
      [&] { r = engine.Execute(request).result; });
  // Cancel only once a grid cell has fired: the run has then registered
  // its token, and with every cell sleeping 10 ms it is still inside the
  // classifier grid when Cancel() lands, before the inference phase checks
  // for cancellation.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (FaultInjector::FireCount("inference.cell") == 0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool in_grid = FaultInjector::FireCount("inference.cell") >= 1;
  engine.Cancel();
  runner.join();
  ASSERT_TRUE(in_grid) << "the run never reached the classifier grid";

  EXPECT_EQ(r.status.code(), StatusCode::kCancelled) << r.status;
  EXPECT_NE(r.completeness, MatchCompleteness::kComplete);

  // Cancel() with no run in flight is a harmless no-op, and the engine
  // stays usable: the next (un-slowed) call completes normally.
  engine.Cancel();
  FaultInjector::DisarmAll();
  ContextMatchResult again = engine.Execute(request).result;
  EXPECT_TRUE(again.status.ok());
  EXPECT_EQ(again.completeness, MatchCompleteness::kComplete);
}

TEST_F(RobustnessTest, Phase1CutIsAWholeChunkTablePrefix) {
  // Ten tiny source tables; cancellation fired from inside the first chunk
  // of 8 is observed at the chunk barrier, so exactly 8 tables survive —
  // at any thread count.
  Database source("src");
  for (int t = 0; t < 10; ++t) {
    source.AddTable(MakeTable(
        "t" + std::to_string(t), {"name", "qty"},
        {{S("alpha"), I(1)}, {S("beta"), I(2)}, {S("gamma"), I(3)}}));
  }
  Database target("tgt");
  target.AddTable(MakeTable("items", {"name", "qty"},
                            {{S("alpha"), I(1)}, {S("delta"), I(4)}}));
  const MatchRequest request{.source = BorrowDatabase(source),
                             .target = BorrowDatabase(target)};

  for (size_t threads : {1u, 2u, 4u}) {
    CancellationToken token;
    FaultInjector::Arm({.site = "standard.session",
                        .index = 3,
                        .action = FaultInjector::Action::kCancel,
                        .token = &token,
                        .reason = CancelReason::kDeadline});

    MatchEngine engine(Options(threads));
    ContextMatchResult r = engine.Execute(request, &token).result;

    EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded)
        << "threads=" << threads;
    EXPECT_NE(r.status.message().find("standard_match"), std::string::npos);
    EXPECT_EQ(r.completeness, MatchCompleteness::kBaselineOnly);
    EXPECT_EQ(r.phases.counters.at("source_tables"), 8u)
        << "threads=" << threads;
    EXPECT_GE(r.phases.counters.at("cancelled.standard_match"), 1u);
    FaultInjector::DisarmAll();

    // The partial session prefix must never be cached: a fresh healthy
    // call on the same data rebuilds and sees all 10 tables.
    ContextMatchResult healthy = engine.Execute(request).result;
    EXPECT_TRUE(healthy.status.ok()) << healthy.status;
    EXPECT_EQ(healthy.phases.counters.at("source_tables"), 10u);
    EXPECT_EQ(engine.session_cache_hits(), 0u);
  }
}

TEST_F(RobustnessTest, ScoringCutIsAWholeChunkCandidatePrefix) {
  // The Grades fixture with NaiveInfer yields ~30 candidate views — more
  // than one scoring chunk of 16 — so a cancellation fired from inside the
  // first chunk truncates the pool to exactly 16 candidates, at any thread
  // count.
  GradesOptions g;
  g.num_students = 120;
  g.seed = 3;
  GradesDataset data = MakeGradesDataset(g);
  const MatchRequest request{.source = BorrowDatabase(data.source),
                             .target = BorrowDatabase(data.target)};
  auto opts = [](size_t threads) {
    ContextMatchOptions o;
    o.inference = ViewInferenceKind::kNaive;
    o.tau = 0.45;
    o.omega = 0.025;
    o.seed = 4;
    o.threads = threads;
    return o;
  };

  MatchEngine clean_engine(opts(2));
  ContextMatchResult clean = clean_engine.Execute(request).result;
  ASSERT_TRUE(clean.status.ok());
  ASSERT_GT(clean.pool.candidate_views.size(), 16u);

  for (size_t threads : {1u, 2u, 4u}) {
    CancellationToken token;
    FaultInjector::Arm({.site = "scoring.candidate",
                        .index = 5,
                        .action = FaultInjector::Action::kCancel,
                        .token = &token,
                        .reason = CancelReason::kDeadline});
    MatchEngine engine(opts(threads));
    ContextMatchResult r = engine.Execute(request, &token).result;
    FaultInjector::DisarmAll();

    EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded)
        << "threads=" << threads;
    EXPECT_EQ(r.completeness, MatchCompleteness::kPartialViews);
    EXPECT_EQ(r.pool.candidate_views.size(), 16u) << "threads=" << threads;
    EXPECT_EQ(r.phases.counters.at("candidate_views"), 16u);
    // Scored candidates past the cut never leak into the pool.
    EXPECT_LT(r.pool.view_matches.size(), clean.pool.view_matches.size());
  }
}

TEST_F(RobustnessTest, SleepInjectionNeverChangesResults) {
  // kSleep at the schedule-dependent "pool.task" site (and anywhere else)
  // perturbs timing only; the output stays bit-identical.
  RetailDataset data = Data();
  const MatchRequest request{.source = BorrowDatabase(data.source),
                             .target = BorrowDatabase(data.target)};
  MatchEngine clean_engine(Options(2));
  ContextMatchResult clean = clean_engine.Execute(request).result;

  FaultInjector::Arm({.site = "pool.task",
                      .action = FaultInjector::Action::kSleep,
                      .sleep_ms = 1,
                      .fire_limit = 16});
  MatchEngine slow_engine(Options(2));
  ContextMatchResult slow = slow_engine.Execute(request).result;

  EXPECT_TRUE(slow.status.ok());
  ASSERT_EQ(slow.matches.size(), clean.matches.size());
  for (size_t i = 0; i < slow.matches.size(); ++i) {
    EXPECT_EQ(slow.matches[i].ToString(), clean.matches[i].ToString());
  }
}

}  // namespace
}  // namespace csm
