// Micro-benchmarks (google-benchmark): classifier kernels (fitting a
// model, predicting a distinct value), ClusteredViewGen, view
// materialization, and condition evaluation.

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
/// even training rows are labeled 0 and odd rows 1; a predict bench's probe
/// is the last row, its model's one test item.
CellRows TrainEveryRow(size_t rows, bool probe_last) {
  CellRows out;
  const size_t train = probe_last ? rows - 1 : rows;
  for (size_t r = 0; r < train; ++r) {
    out.train.push_back({static_cast<RowId>(r), static_cast<AtomId>(r % 2)});
  }
  if (probe_last) out.test.push_back({static_cast<RowId>(train), 0});
  return out;
}

Column Titles(Rng& rng, bool with_probe) {
  Column titles(ValueType::kString);
  for (int i = 0; i < 200; ++i) {
    titles.Append(Value::String(MakeBookTitle(rng)));
    titles.Append(Value::String(MakeAlbumTitle(rng)));
  }
  if (with_probe) titles.Append(Value::String(MakeBookTitle(rng)));
  return titles;
}

void BM_NaiveBayesTrain(benchmark::State& state) {
  Rng rng(5);
  const Column titles = Titles(rng, false);
  const CellRows rows = TrainEveryRow(titles.size(), false);
  for (auto _ : state) {
    NaiveBayesCellModel model(titles, rows, 2);
    benchmark::DoNotOptimize(model);
  }
}
BENCHMARK(BM_NaiveBayesTrain);

/// One distinct value predicted by a fitted model: a tagger's cost per
/// distinct evidence value, past tokenizing it.
void BM_NaiveBayesPredict(benchmark::State& state) {
  Rng rng(6);
  const Column titles = Titles(rng, true);
  const NaiveBayesCellModel model(
      titles, TrainEveryRow(titles.size(), true), 2);
  std::vector<LabelId> predicted;
  for (auto _ : state) {
    model.PredictAll({0, 1}, &predicted);
    benchmark::DoNotOptimize(predicted.data());
  }
}
BENCHMARK(BM_NaiveBayesPredict);

void BM_GaussianPredict(benchmark::State& state) {
  Rng rng(7);
  Column prices(ValueType::kReal);
  for (int i = 0; i < 500; ++i) {
    prices.Append(Value::Real(rng.NextGaussian(20, 5)));
    prices.Append(Value::Real(rng.NextGaussian(14, 3)));
  }
  prices.Append(Value::Real(17.0));  // the probe
  const GaussianCellModel model(prices, TrainEveryRow(prices.size(), true),
                                2);
  std::vector<LabelId> predicted;
  for (auto _ : state) {
    model.PredictAll({0, 1}, &predicted);
    benchmark::DoNotOptimize(predicted.data());
  }
}
BENCHMARK(BM_GaussianPredict);

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
