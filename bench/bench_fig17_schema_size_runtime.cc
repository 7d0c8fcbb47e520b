// Figure 17: runtime vs schema size for SrcClassInfer vs TgtClassInfer.
//
// Expected shape (Section 5.5): TgtClassInfer runs much slower than
// SrcClassInfer as the schema grows — it must classify every source value
// against every target column per (h, l) pair — while both remain slightly
// more accurate than NaiveInfer.  Each side's mean inference seconds (the
// phase in which the strategies classify) are printed beside its total, to
// show how much of the gap classification accounts for.

#include "bench/bench_util.h"

int main() {
  using namespace csm;
  using namespace csm::bench;

  const size_t reps = GlobalBenchConfig().Repetitions(3);
  ResultTable table("Fig 17: runtime vs schema size",
                    {"extra_attrs", "src_seconds", "tgt_seconds", "tgt/src",
                     "src_inference_s", "tgt_inference_s"});
  for (size_t n : {0u, 4u, 8u, 12u, 16u}) {
    RetailOptions data = DefaultRetail();
    data.num_items = 200;
    data.extra_noncategorical = n;
    data.extra_categorical = n / 4;
    ContextMatchOptions src = DefaultMatch();
    src.inference = ViewInferenceKind::kSrcClass;
    ContextMatchOptions tgt = src;
    tgt.inference = ViewInferenceKind::kTgtClass;
    AggregatedMetrics src_metrics = RunRepeated(reps, 800, [&](uint64_t seed) {
      return RetailTrial(data, src, seed);
    });
    AggregatedMetrics tgt_metrics = RunRepeated(reps, 800, [&](uint64_t seed) {
      return RetailTrial(data, tgt, seed);
    });
    double ss = src_metrics.Mean("match_seconds");
    double ts = tgt_metrics.Mean("match_seconds");
    table.AddRow({std::to_string(n), ResultTable::Num(ss),
                  ResultTable::Num(ts),
                  ResultTable::Num(ss > 0 ? ts / ss : 0.0, 2),
                  ResultTable::Num(src_metrics.Mean("inference_seconds")),
                  ResultTable::Num(tgt_metrics.Mean("inference_seconds"))});
  }
  table.Print();
  return 0;
}
