// Micro-benchmarks (google-benchmark): classifier training/classification,
// ClusteredViewGen, view materialization, and condition evaluation.

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "core/clustered_view_gen.h"
#include "core/src_class_infer.h"
#include "datagen/retail_gen.h"
#include "datagen/wordlists.h"
#include "ml/gaussian_classifier.h"
#include "ml/naive_bayes.h"

namespace csm {
namespace {

RetailDataset& SharedData() {
  static RetailDataset* data = [] {
    RetailOptions options;
    options.num_items = 400;
    options.seed = 78;
    return new RetailDataset(MakeRetailDataset(options));
  }();
  return *data;
}

/// Each classifier bench reads one column built outside the timed loop:
/// even training rows are labeled 0 and odd rows 1; a classify bench's
/// probe is the last row.
LabelId LabelOfRow(size_t r) { return static_cast<LabelId>(r % 2); }

void BM_NaiveBayesTrain(benchmark::State& state) {
  Rng rng(5);
  Column titles(ValueType::kString);
  for (int i = 0; i < 200; ++i) {
    titles.Append(Value::String(MakeBookTitle(rng)));
    titles.Append(Value::String(MakeAlbumTitle(rng)));
  }
  for (auto _ : state) {
    NaiveBayesClassifier nb;
    for (size_t r = 0; r < titles.size(); ++r) {
      nb.Train(titles, r, LabelOfRow(r));
    }
    benchmark::DoNotOptimize(nb);
  }
}
BENCHMARK(BM_NaiveBayesTrain);

/// Memo-warm after the first iteration: a TgtClassInfer tagger's cost for
/// a repeated evidence value.
void BM_NaiveBayesClassify(benchmark::State& state) {
  Rng rng(6);
  Column titles(ValueType::kString);
  for (int i = 0; i < 200; ++i) {
    titles.Append(Value::String(MakeBookTitle(rng)));
    titles.Append(Value::String(MakeAlbumTitle(rng)));
  }
  titles.Append(Value::String(MakeBookTitle(rng)));  // the probe
  const size_t probe = titles.size() - 1;
  NaiveBayesClassifier nb;
  for (size_t r = 0; r < probe; ++r) nb.Train(titles, r, LabelOfRow(r));
  for (auto _ : state) {
    benchmark::DoNotOptimize(nb.Classify(titles, probe));
  }
}
BENCHMARK(BM_NaiveBayesClassify);

void BM_GaussianClassify(benchmark::State& state) {
  Rng rng(7);
  Column prices(ValueType::kReal);
  for (int i = 0; i < 500; ++i) {
    prices.Append(Value::Real(rng.NextGaussian(20, 5)));
    prices.Append(Value::Real(rng.NextGaussian(14, 3)));
  }
  prices.Append(Value::Real(17.0));  // the probe
  const size_t probe = prices.size() - 1;
  GaussianClassifier g;
  for (size_t r = 0; r < probe; ++r) g.Train(prices, r, LabelOfRow(r));
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.Classify(prices, probe));
  }
}
BENCHMARK(BM_GaussianClassify);

void BM_ClusteredViewGen(benchmark::State& state) {
  const Table& inv = SharedData().source.GetTable("inventory");
  const ClassifierFactory factory = SrcClassifierFactory();
  bool early = state.range(0) != 0;
  for (auto _ : state) {
    Rng rng(9);
    benchmark::DoNotOptimize(
        ClusteredViewGen(inv, factory, {}, {}, early, rng).size());
  }
}
BENCHMARK(BM_ClusteredViewGen)->Arg(0)->Arg(1);

void BM_ViewMaterialize(benchmark::State& state) {
  const RetailDataset& data = SharedData();
  const Table& inv = data.source.GetTable("inventory");
  View view("books", "inventory",
            Condition::Equals("ItemType", data.book_labels[0]));
  for (auto _ : state) {
    benchmark::DoNotOptimize(view.Materialize(inv).num_rows());
  }
}
BENCHMARK(BM_ViewMaterialize);

void BM_ConditionEvaluate(benchmark::State& state) {
  const RetailDataset& data = SharedData();
  const Table& inv = data.source.GetTable("inventory");
  Condition condition = Condition::In(
      "ItemType", {data.book_labels[0], data.cd_labels[0]});
  // Boxed once outside the timed loop, as the row store held them.
  std::vector<Row> rows;
  rows.reserve(inv.num_rows());
  for (size_t r = 0; r < inv.num_rows(); ++r) rows.push_back(inv.row(r));
  for (auto _ : state) {
    size_t hits = 0;
    for (const Row& row : rows) {
      if (condition.Evaluate(inv.schema(), row)) ++hits;
    }
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_ConditionEvaluate);

}  // namespace
}  // namespace csm

BENCHMARK_MAIN();
