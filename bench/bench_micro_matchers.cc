// Micro-benchmarks (google-benchmark): matcher scoring throughput, session
// construction, restricted-bag rescoring, and the confidence-blend
// ablation called out in DESIGN.md.

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "datagen/retail_gen.h"
#include "match/matchers.h"
#include "match/session.h"

namespace csm {
namespace {

RetailDataset& SharedData() {
  static RetailDataset* data = [] {
    RetailOptions options;
    options.num_items = 400;
    options.seed = 77;
    return new RetailDataset(MakeRetailDataset(options));
  }();
  return *data;
}

void BM_QGramMatcherScore(benchmark::State& state) {
  const Table& inv = SharedData().source.GetTable("inventory");
  const Table& book = SharedData().target.GetTable("Book");
  AttributeSample source = AttributeSample::FromTable(inv, "Title");
  AttributeSample target = AttributeSample::FromTable(book, "BookTitle");
  // Warm the profile caches so the loop measures similarity only.
  source.QGramProfile();
  target.QGramProfile();
  QGramMatcher matcher;
  for (auto _ : state) {
    benchmark::DoNotOptimize(matcher.Score(source, target));
  }
}
BENCHMARK(BM_QGramMatcherScore);

void BM_QGramProfileBuild(benchmark::State& state) {
  const Table& inv = SharedData().source.GetTable("inventory");
  for (auto _ : state) {
    AttributeSample source = AttributeSample::FromTable(inv, "Title");
    benchmark::DoNotOptimize(source.QGramProfile().total());
  }
}
BENCHMARK(BM_QGramProfileBuild);

void BM_NumericMatcherScore(benchmark::State& state) {
  const Table& inv = SharedData().source.GetTable("inventory");
  const Table& book = SharedData().target.GetTable("Book");
  AttributeSample source = AttributeSample::FromTable(inv, "Price");
  AttributeSample target = AttributeSample::FromTable(book, "ListPrice");
  source.NumericStats();
  target.NumericStats();
  NumericMatcher matcher;
  for (auto _ : state) {
    benchmark::DoNotOptimize(matcher.Score(source, target));
  }
}
BENCHMARK(BM_NumericMatcherScore);

void BM_SessionConstruction(benchmark::State& state) {
  const RetailDataset& data = SharedData();
  MatchOptions options;
  options.blend_raw_score = state.range(0) != 0;
  for (auto _ : state) {
    TableMatchSession session(data.source.GetTable("inventory"), data.target,
                              DefaultMatcherSuite(), options);
    benchmark::DoNotOptimize(session.AcceptedMatches(0.5).size());
  }
}
// Ablation: arg 1 = blended confidence (default), arg 0 = pure Phi(z).
BENCHMARK(BM_SessionConstruction)->Arg(1)->Arg(0);

void BM_ScoreRestricted(benchmark::State& state) {
  const RetailDataset& data = SharedData();
  const Table& inv = data.source.GetTable("inventory");
  TableMatchSession session(inv, data.target, DefaultMatcherSuite());
  // Books-only title bag.
  std::vector<Value> restricted;
  for (size_t r = 0; r < inv.num_rows(); ++r) {
    if (inv.ValueAt(r, "ItemType") == data.book_labels[0]) {
      restricted.push_back(inv.ValueAt(r, "Title"));
    }
  }
  AttributeRef target{"Book", "BookTitle"};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        session.ScoreRestricted("Title", restricted, target).confidence);
  }
}
BENCHMARK(BM_ScoreRestricted);

}  // namespace
}  // namespace csm

BENCHMARK_MAIN();
