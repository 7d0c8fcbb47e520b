// Tests for the observability layer (src/obs/): histogram quantiles,
// registry aggregation under concurrency, hierarchical span recording, the
// Chrome trace-event export, and the end-to-end span coverage of a traced
// MatchEngine run.

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/match_engine.h"
#include "datagen/retail_gen.h"
#include "exec/parallel.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace csm {
namespace {

TEST(HistogramTest, SummaryOfSingleValueIsExact) {
  obs::Histogram h;
  h.Observe(0.25);
  obs::HistogramSummary s = h.Summary();
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.sum, 0.25);
  EXPECT_DOUBLE_EQ(s.min, 0.25);
  EXPECT_DOUBLE_EQ(s.max, 0.25);
  // Quantiles are clamped to the observed range.
  EXPECT_DOUBLE_EQ(s.p50, 0.25);
  EXPECT_DOUBLE_EQ(s.p99, 0.25);
}

TEST(HistogramTest, QuantilesOrderedAndWithinRange) {
  obs::Histogram h;
  // 1ms .. 100ms uniform-ish spread.
  for (int i = 1; i <= 100; ++i) h.Observe(i * 0.001);
  obs::HistogramSummary s = h.Summary();
  EXPECT_EQ(s.count, 100u);
  EXPECT_NEAR(s.sum, 5.05, 1e-9);
  EXPECT_DOUBLE_EQ(s.min, 0.001);
  EXPECT_DOUBLE_EQ(s.max, 0.1);
  EXPECT_LE(s.min, s.p50);
  EXPECT_LE(s.p50, s.p95);
  EXPECT_LE(s.p95, s.p99);
  EXPECT_LE(s.p99, s.max);
  // Buckets are factor-2 wide, so the p50 estimate for a uniform 1..100ms
  // spread must land within a bucket of the true median (50.5ms).
  EXPECT_GT(s.p50, 0.025);
  EXPECT_LT(s.p50, 0.1);
}

TEST(HistogramTest, MergeFromCombinesCounts) {
  obs::Histogram a, b;
  a.Observe(0.001);
  a.Observe(0.002);
  b.Observe(1.0);
  a.MergeFrom(b);
  obs::HistogramSummary s = a.Summary();
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.min, 0.001);
  EXPECT_DOUBLE_EQ(s.max, 1.0);
}

TEST(MetricsRegistryTest, CountersExactUnderPoolConcurrency) {
  obs::MetricsRegistry registry;
  exec::ThreadPool pool(4);
  const size_t kIters = 2000;
  exec::ParallelFor(&pool, kIters, [&](size_t i) {
    registry.AddCounter("events");
    registry.AddSeconds("phase", 0.001);
    registry.Observe("latency", 1e-4 * static_cast<double>(i % 7 + 1));
  });
  EXPECT_EQ(registry.Counter("events"), kIters);
  EXPECT_NEAR(registry.Seconds("phase"), 0.001 * kIters, 1e-6);
  EXPECT_EQ(registry.Summary("latency").count, kIters);
}

TEST(MetricsRegistryTest, MergeFromFoldsEverySection) {
  obs::MetricsRegistry a, b;
  a.AddCounter("n", 2);
  b.AddCounter("n", 3);
  a.AddSeconds("t", 1.0);
  b.AddSeconds("t", 0.5);
  b.SetGauge("g", 7.0);
  b.Observe("h", 0.01);
  a.MergeFrom(b);
  obs::PhaseReport report = a.Snapshot();
  EXPECT_EQ(report.Count("n"), 5u);
  EXPECT_DOUBLE_EQ(report.Seconds("t"), 1.5);
  EXPECT_DOUBLE_EQ(report.Gauge("g"), 7.0);
  EXPECT_EQ(report.Histogram("h").count, 1u);
}

TEST(PhaseReportTest, JsonHasAllSections) {
  obs::MetricsRegistry registry;
  registry.AddSeconds("scoring", 0.5);
  registry.AddCounter("views", 4);
  registry.SetGauge("threads", 2.0);
  registry.Observe("lat", 0.001);
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"scoring\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(TracerTest, NullTracerSpansAreNoops) {
  obs::ScopedSpan outer(nullptr, "outer");
  EXPECT_EQ(outer.id(), 0u);
  EXPECT_EQ(obs::Tracer::CurrentSpan(), 0u);
}

TEST(TracerTest, NestedSpansParentAutomatically) {
  obs::Tracer tracer;
  uint64_t outer_id = 0, inner_id = 0;
  {
    obs::ScopedSpan outer(&tracer, "outer");
    outer_id = outer.id();
    EXPECT_EQ(obs::Tracer::CurrentSpan(), outer_id);
    {
      obs::ScopedSpan inner(&tracer, "inner");
      inner_id = inner.id();
      EXPECT_EQ(obs::Tracer::CurrentSpan(), inner_id);
    }
    EXPECT_EQ(obs::Tracer::CurrentSpan(), outer_id);
  }
  EXPECT_EQ(obs::Tracer::CurrentSpan(), 0u);

  std::vector<obs::SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  const auto& inner =
      spans[0].name == "inner" ? spans[0] : spans[1];
  const auto& outer =
      spans[0].name == "outer" ? spans[0] : spans[1];
  EXPECT_EQ(inner.parent, outer_id);
  EXPECT_EQ(outer.parent, 0u);
  EXPECT_EQ(inner.id, inner_id);
  EXPECT_GE(outer.duration_seconds, inner.duration_seconds);
}

TEST(TracerTest, CrossThreadSpansNestUnderPoolTaskSpans) {
  obs::Tracer tracer;
  obs::MetricsRegistry registry;
  exec::ThreadPool pool(3);
  pool.SetObservability(&registry, &tracer);
  uint64_t root_id = 0;
  {
    obs::ScopedSpan root(&tracer, "root");
    root_id = root.id();
    exec::ParallelFor(&pool, 16, [&](size_t) {
      obs::ScopedSpan work(&tracer, "work");
      // Touch the span so the loop body is not empty.
      ASSERT_NE(work.id(), 0u);
    });
  }
  pool.SetObservability(nullptr, nullptr);

  std::vector<obs::SpanRecord> spans = tracer.Snapshot();
  std::map<uint64_t, const obs::SpanRecord*> by_id;
  for (const auto& s : spans) by_id[s.id] = &s;

  size_t work_spans = 0, pool_task_spans = 0;
  for (const auto& s : spans) {
    if (s.name == "pool_task") {
      ++pool_task_spans;
      // Pool task spans parent under the span current at Submit time.
      EXPECT_EQ(s.parent, root_id);
    }
    if (s.name != "work") continue;
    ++work_spans;
    // Every work span chains up to the root: directly (inline execution on
    // the calling thread) or via its worker's pool_task span.
    ASSERT_NE(s.parent, 0u);
    const obs::SpanRecord* parent = by_id[s.parent];
    ASSERT_NE(parent, nullptr);
    EXPECT_TRUE(parent->id == root_id || parent->name == "pool_task")
        << "unexpected parent " << parent->name;
  }
  EXPECT_EQ(work_spans, 16u);
  EXPECT_GE(pool_task_spans, 1u);

  // Worker spans carry a different dense thread index than the caller's.
  std::set<size_t> thread_indices;
  for (const auto& s : spans) thread_indices.insert(s.thread_index);
  EXPECT_GE(thread_indices.size(), 2u);

  // The pool reported its task metrics into the registry.
  EXPECT_GE(registry.Counter("pool.tasks_run"), 1u);
  EXPECT_GE(registry.Summary("pool.task_run_seconds").count, 1u);
}

TEST(TracerTest, ChromeTraceJsonIsStructurallySound) {
  obs::Tracer tracer;
  {
    obs::ScopedSpan a(&tracer, "alpha");
    obs::ScopedSpan b(&tracer, "beta \"quoted\"\n");
  }
  const std::string json = tracer.ToChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"alpha\""), std::string::npos);
  // Special characters in names are escaped, not emitted raw.
  EXPECT_NE(json.find("beta \\\"quoted\\\"\\n"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));

  const std::string tree = tracer.ToTextTree();
  EXPECT_NE(tree.find("alpha"), std::string::npos);
}

TEST(TracedMatchTest, SpansCoverTheRunAndNestUnderRoot) {
  RetailOptions d;
  d.num_items = 120;
  d.seed = 21;
  RetailDataset data = MakeRetailDataset(d);
  ContextMatchOptions o;
  o.seed = 22;
  o.omega = 0.1;
  o.threads = 2;

  MatchEngine engine(o);
  obs::Tracer tracer;
  engine.set_tracer(&tracer);
  const MatchRequest request{.source = BorrowDatabase(data.source),
                             .target = BorrowDatabase(data.target)};
  ContextMatchResult result = engine.Execute(request).result;
  ASSERT_FALSE(result.matches.empty());

  std::vector<obs::SpanRecord> spans = tracer.Snapshot();
  const obs::SpanRecord* root = nullptr;
  for (const auto& s : spans) {
    if (s.name == "ContextMatch") root = &s;
  }
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->parent, 0u);

  // The root span covers (almost) all of the phase wall-clock: the
  // "spans cover the run" acceptance check.
  EXPECT_GE(tracer.RootSeconds(), 0.95 * result.TotalSeconds());

  // Every phase span nests under the root; stages sit in between.
  std::map<uint64_t, const obs::SpanRecord*> by_id;
  for (const auto& s : spans) by_id[s.id] = &s;
  std::set<std::string> phase_names;
  for (const auto& s : spans) {
    if (s.name != "standard_match" && s.name != "inference" &&
        s.name != "scoring" && s.name != "selection") {
      continue;
    }
    phase_names.insert(s.name);
    const obs::SpanRecord* p = by_id[s.parent];
    ASSERT_NE(p, nullptr) << s.name << " has unknown parent";
    if (p->name.rfind("stage:", 0) == 0) p = by_id[p->parent];
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->id, root->id) << s.name << " not under the root";
  }
  EXPECT_EQ(phase_names.size(), 4u);

  // Grid-cell and per-view scoring spans exist and chain up to the root.
  size_t cell_spans = 0, score_spans = 0;
  for (const auto& s : spans) {
    if (s.name.rfind("cell:", 0) == 0) ++cell_spans;
    if (s.name.rfind("score:", 0) == 0) ++score_spans;
  }
  EXPECT_GE(cell_spans, 1u);
  EXPECT_GE(score_spans, 1u);
  EXPECT_EQ(score_spans, result.pool.candidate_views.size());

  // The same run's metrics landed in the result's PhaseReport.
  EXPECT_EQ(result.phases.Histogram("scoring.view_seconds").count,
            result.pool.candidate_views.size());
  EXPECT_GE(result.phases.Histogram("inference.cell_seconds").count,
            cell_spans);
  EXPECT_GT(result.phases.Seconds("standard_match"), 0.0);
}

}  // namespace
}  // namespace csm
