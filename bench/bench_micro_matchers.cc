// Micro-benchmarks (google-benchmark): matcher scoring throughput, session
// construction, restricted-bag rescoring, placebo draws, per-code index
// builds, and the confidence-blend ablation called out in DESIGN.md.

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "datagen/retail_gen.h"
#include "match/matchers.h"
#include "match/session.h"
#include "relational/sample.h"

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
  // Books-only rows, the indexed whole-table sample and its alignment to
  // the target are built once, as a pipeline run builds them; the loop
  // times Restrict (code counts + term merges) and the aligned rescoring.
  PosList books;
  for (size_t r = 0; r < inv.num_rows(); ++r) {
    if (inv.ValueAt(r, "ItemType") == data.book_labels[0]) {
      books.push_back(static_cast<RowId>(r));
    }
  }
  const AttributeSample title = AttributeSample::Indexed(inv, "Title");
  AttributeRef target{"Book", "BookTitle"};
  const IndexAlignment alignment = session.AlignRestricted(title, target);
  for (auto _ : state) {
    AttributeSample sample = title.Restrict(books);
    benchmark::DoNotOptimize(
        session.ScoreRestrictedSample(sample, target, &alignment).confidence);
  }
}
BENCHMARK(BM_ScoreRestricted);

// The match_batch shape's source table: 800 Retail items.
const Table& BatchInventory() {
  static const RetailDataset* data = [] {
    RetailOptions options;
    options.num_items = 800;
    options.seed = 77;
    return new RetailDataset(MakeRetailDataset(options));
  }();
  return data->source.GetTable("inventory");
}

// One placebo draw: arg 0 = table rows, arg 1 = picks.  222 of 800 is a
// view's draw on the match_batch shape; 64 of 3e9 shows the cost does not
// grow with the table.
void BM_SampleRowPositions(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  const size_t picks = static_cast<size_t>(state.range(1));
  Rng rng(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SampleRowPositions(rows, picks, rng));
  }
}
BENCHMARK(BM_SampleRowPositions)
    ->Args({800, 222})
    ->Args({3'000'000'000, 64});

// The per-code token index of the 800-item inventory's Title column, as
// each pipeline run builds it once per rescored attribute.
void BM_CodeTokenIndexBuild(benchmark::State& state) {
  const Table& inv = BatchInventory();
  for (auto _ : state) {
    benchmark::DoNotOptimize(AttributeSample::Indexed(inv, "Title"));
  }
}
BENCHMARK(BM_CodeTokenIndexBuild);

}  // namespace
}  // namespace csm

BENCHMARK_MAIN();
