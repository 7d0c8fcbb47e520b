// Runtime scaling of the parallel execution engine (the Fig 15/17/22
// runtime family, re-measured against the thread count): one fixed Retail
// workload run at threads = 1, 2, 4 and all-cores, reporting total and
// per-phase wall-clock plus the speedup over the serial run.
//
// Results are bit-identical at every thread count (the determinism test
// enforces this), so the quality columns are constant and only time moves.
//
// Writes a machine-readable record to BENCH_threads_speedup.json (or
// argv[1]); the JSON includes the machine's hardware concurrency because
// speedup is bounded by the cores actually available.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "exec/thread_pool.h"

int main(int argc, char** argv) {
  using namespace csm;
  using namespace csm::bench;

  const std::string json_path =
      argc > 1 ? argv[1] : "BENCH_threads_speedup.json";
  const size_t reps = GlobalBenchConfig().Repetitions(3);
  const size_t hardware = exec::ThreadPool::HardwareThreads();
  if (hardware == 1) {
    std::fprintf(stderr,
                 "\n"
                 "*** WARNING: hardware_concurrency is 1 on this machine.  *\n"
                 "*** Every thread count below runs on a single core, so  *\n"
                 "*** speedup_vs_serial cannot exceed 1.0; treat the      *\n"
                 "*** multi-thread rows as overhead measurements only.    *\n"
                 "\n");
  }

  // Refuse before burning bench time, not just before the write.
  if (!SpeedupRecordWriteAllowed(json_path, hardware)) return 4;

  RetailOptions data = DefaultRetail();
  data.num_items = 400;
  ContextMatchOptions match = DefaultMatch();

  std::vector<size_t> thread_counts = {1, 2, 4};
  if (hardware > 4) thread_counts.push_back(hardware);

  ResultTable table(
      "Threads: ContextMatch runtime scaling (Retail, SrcClassInfer)",
      {"threads", "match_seconds", "standard", "inference", "scoring",
       "selection", "speedup", "fmeasure"});

  struct Row {
    size_t threads;
    double match_seconds, standard, inference, scoring, selection, fmeasure;
    double scoring_view_p95, inference_cell_p95;
  };
  std::vector<Row> rows;
  double serial_seconds = 0.0;
  for (size_t threads : thread_counts) {
    match.threads = threads;
    AggregatedMetrics m = RunRepeated(reps, 900, [&](uint64_t seed) {
      return MatchTrial(MakeRetailDataset, "retail", data, match, seed);
    });
    Row row;
    row.threads = threads;
    row.match_seconds = m.Mean("match_seconds");
    row.standard = m.Mean("standard_match_seconds");
    row.inference = m.Mean("inference_seconds");
    row.scoring = m.Mean("scoring_seconds");
    row.selection = m.Mean("selection_seconds");
    row.fmeasure = m.Mean("fmeasure");
    row.scoring_view_p95 = m.Mean("scoring_view_p95_seconds");
    row.inference_cell_p95 = m.Mean("inference_cell_p95_seconds");
    if (threads == 1) serial_seconds = row.match_seconds;
    rows.push_back(row);
    double speedup =
        row.match_seconds > 0 ? serial_seconds / row.match_seconds : 0.0;
    table.AddRow({std::to_string(threads), ResultTable::Num(row.match_seconds),
                  ResultTable::Num(row.standard),
                  ResultTable::Num(row.inference),
                  ResultTable::Num(row.scoring),
                  ResultTable::Num(row.selection),
                  ResultTable::Num(speedup, 2),
                  ResultTable::Num(row.fmeasure)});
  }
  table.Print();
  std::printf("hardware_concurrency: %zu\n", hardware);

  FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"threads_speedup\",\n"
               "  \"figure_family\": \"Fig 15/17/22 runtime\",\n"
               "  \"workload\": {\"dataset\": \"retail\", \"num_items\": %zu,"
               " \"gamma\": %zu, \"inference\": \"SrcClassInfer\","
               " \"repetitions\": %zu},\n"
               "  \"hardware_concurrency\": %zu,\n"
               "  \"note\": \"speedup_vs_serial is bounded above by "
               "hardware_concurrency; %zu core%s available on this "
               "machine\",\n"
               "  \"rows\": [\n",
               data.num_items, data.gamma, reps, hardware, hardware,
               hardware == 1 ? "" : "s");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        out,
        "    {\"threads\": %zu, \"match_seconds\": %.4f,"
        " \"standard_match_seconds\": %.4f, \"inference_seconds\": %.4f,"
        " \"scoring_seconds\": %.4f, \"selection_seconds\": %.4f,"
        " \"scoring_view_p95_seconds\": %.6f,"
        " \"inference_cell_p95_seconds\": %.6f,"
        " \"speedup_vs_serial\": %.3f, \"fmeasure\": %.4f}%s\n",
        r.threads, r.match_seconds, r.standard, r.inference, r.scoring,
        r.selection, r.scoring_view_p95, r.inference_cell_p95,
        r.match_seconds > 0 ? serial_seconds / r.match_seconds : 0.0,
        r.fmeasure, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
