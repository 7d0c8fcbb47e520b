// Figure 15: runtime of EarlyDisjuncts relative to LateDisjuncts as the
// ItemType cardinality gamma grows, with NaiveInfer (whose early-disjunct
// condition space is the full subset lattice).
//
// Expected shape (Section 5.4): EarlyDisjuncts' runtime grows exponentially
// in gamma (2^gamma candidate subset conditions) while LateDisjuncts grows
// only linearly, so the ratio explodes.  EarlyDisjuncts' per-phase seconds
// (standard match, inference, scoring) show where its time goes.

#include "bench/bench_util.h"

int main() {
  using namespace csm;
  using namespace csm::bench;

  const size_t reps = GlobalBenchConfig().Repetitions(3);
  ResultTable table(
      "Fig 15: EarlyDisjuncts runtime relative to LateDisjuncts (NaiveInfer)",
      {"gamma", "early_seconds", "late_seconds", "early/late",
       "early_standard_s", "early_inference_s", "early_scoring_s"});
  for (size_t gamma : {2u, 4u, 6u, 8u, 10u}) {
    RetailOptions data = DefaultRetail();
    data.gamma = gamma;
    ContextMatchOptions early = DefaultMatch();
    early.inference = ViewInferenceKind::kNaive;
    early.early_disjuncts = true;
    ContextMatchOptions late = early;
    late.early_disjuncts = false;
    AggregatedMetrics early_metrics =
        RunRepeated(reps, 600, [&](uint64_t seed) {
          return RetailTrial(data, early, seed);
        });
    AggregatedMetrics late_metrics =
        RunRepeated(reps, 600, [&](uint64_t seed) {
          return RetailTrial(data, late, seed);
        });
    double es = early_metrics.Mean("match_seconds");
    double ls = late_metrics.Mean("match_seconds");
    auto early_phase = [&](const char* name) {
      return ResultTable::Num(early_metrics.Mean(name));
    };
    table.AddRow({std::to_string(gamma), ResultTable::Num(es),
                  ResultTable::Num(ls),
                  ResultTable::Num(ls > 0 ? es / ls : 0.0, 2),
                  early_phase("standard_match_seconds"),
                  early_phase("inference_seconds"),
                  early_phase("scoring_seconds")});
  }
  table.Print();
  return 0;
}
