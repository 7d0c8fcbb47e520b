// Runtime scaling of the parallel execution engine (the Fig 15/17/22
// runtime family, re-measured against the thread count) on the shape of
// perfbench's match_batch workload: Retail, 800 items, gamma = 8,
// SrcClassInfer, EarlyDisjuncts, QualTable.  Each repetition generates one
// seeded pair and runs it at threads = 1, 2, 4 (and all cores) in turn, so
// thread counts interleave; a row reports the median over repetitions of
// the match wall time, each phase, the longest classifier-grid cell, and
// the process CPU seconds the run used with its CPU/wall ratio, which
// shows how many cores the run actually got on a shared host.
//
// Results are bit-identical at every thread count (the determinism test
// enforces this), so the quality column is constant and only time moves.
//
// Writes a machine-readable record to BENCH_threads_speedup.json (or
// argv[1]); the JSON includes the machine's hardware concurrency because
// speedup is bounded by the cores actually available.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "exec/thread_pool.h"

namespace {

double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples.empty() ? 0.0 : samples[samples.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  using namespace csm;
  using namespace csm::bench;

  const std::string json_path =
      argc > 1 ? argv[1] : "BENCH_threads_speedup.json";
  const size_t reps = GlobalBenchConfig().Repetitions(7);
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
  data.num_items = 800;
  data.gamma = 8;
  ContextMatchOptions match = DefaultMatch();

  std::vector<size_t> thread_counts = {1, 2, 4};
  if (hardware > 4) thread_counts.push_back(hardware);

  struct Samples {
    std::vector<double> match, standard, inference, scoring, selection;
    std::vector<double> cell_max, cpu, fmeasure;
  };
  std::vector<Samples> samples(thread_counts.size());
  for (size_t rep = 0; rep < reps; ++rep) {
    data.seed = 900 + rep;
    const RetailDataset pair = MakeRetailDataset(data);
    for (size_t t = 0; t < thread_counts.size(); ++t) {
      match.threads = thread_counts[t];
      match.seed = data.seed ^ 0x9e3779b97f4a7c15ULL;
      MatchEngine engine(match);
      MatchRequest request;
      request.source = BorrowDatabase(pair.source);
      request.target = BorrowDatabase(pair.target);
      const double cpu_start = ProcessCpuSeconds();
      const ContextMatchResult result =
          std::move(engine.Execute(request).result);
      Samples& s = samples[t];
      s.cpu.push_back(ProcessCpuSeconds() - cpu_start);
      const obs::PhaseReport& phases = result.phases;
      s.match.push_back(result.TotalSeconds());
      s.standard.push_back(phases.Seconds("standard_match"));
      s.inference.push_back(phases.Seconds("inference"));
      s.scoring.push_back(phases.Seconds("scoring"));
      s.selection.push_back(phases.Seconds("selection"));
      s.cell_max.push_back(phases.Histogram("inference.cell_seconds").max);
      s.fmeasure.push_back(
          EvaluateMatches(pair.truth, result.matches).fmeasure);
    }
  }

  ResultTable table(
      "Threads: ContextMatch runtime scaling (Retail 800 items, gamma 8, "
      "SrcClassInfer, EarlyDisjuncts; medians)",
      {"threads", "match_seconds", "standard", "inference", "longest_cell",
       "scoring", "selection", "cpu_seconds", "cpu/wall", "speedup",
       "fmeasure"});
  struct Row {
    size_t threads;
    double match_seconds, standard, inference, cell_max, scoring, selection;
    double cpu_seconds, fmeasure;
  };
  std::vector<Row> rows;
  for (size_t t = 0; t < thread_counts.size(); ++t) {
    const Samples& s = samples[t];
    rows.push_back({thread_counts[t], Median(s.match), Median(s.standard),
                    Median(s.inference), Median(s.cell_max),
                    Median(s.scoring), Median(s.selection), Median(s.cpu),
                    Median(s.fmeasure)});
  }
  const double serial_seconds = rows.front().match_seconds;
  auto speedup = [&](const Row& r) {
    return r.match_seconds > 0 ? serial_seconds / r.match_seconds : 0.0;
  };
  auto cpu_per_wall = [](const Row& r) {
    return r.match_seconds > 0 ? r.cpu_seconds / r.match_seconds : 0.0;
  };
  for (const Row& r : rows) {
    table.AddRow({std::to_string(r.threads),
                  ResultTable::Num(r.match_seconds, 4),
                  ResultTable::Num(r.standard, 4),
                  ResultTable::Num(r.inference, 4),
                  ResultTable::Num(r.cell_max, 4),
                  ResultTable::Num(r.scoring, 4),
                  ResultTable::Num(r.selection, 4),
                  ResultTable::Num(r.cpu_seconds, 4),
                  ResultTable::Num(cpu_per_wall(r), 2),
                  ResultTable::Num(speedup(r), 2),
                  ResultTable::Num(r.fmeasure)});
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
               " \"early_disjuncts\": true, \"repetitions\": %zu,"
               " \"statistic\": \"median\"},\n"
               "  \"hardware_concurrency\": %zu,\n"
               "  \"note\": \"speedup_vs_serial is bounded above by "
               "hardware_concurrency; %zu core%s available on this "
               "machine; cpu_seconds is the process CPU of the match, "
               "cpu_per_wall the cores it got\",\n"
               "  \"rows\": [\n",
               data.num_items, data.gamma, reps, hardware, hardware,
               hardware == 1 ? "" : "s");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        out,
        "    {\"threads\": %zu, \"match_seconds\": %.4f,"
        " \"standard_match_seconds\": %.4f, \"inference_seconds\": %.4f,"
        " \"inference_longest_cell_seconds\": %.4f,"
        " \"scoring_seconds\": %.4f, \"selection_seconds\": %.4f,"
        " \"cpu_seconds\": %.4f, \"cpu_per_wall\": %.2f,"
        " \"speedup_vs_serial\": %.3f, \"fmeasure\": %.4f}%s\n",
        r.threads, r.match_seconds, r.standard, r.inference, r.cell_max,
        r.scoring, r.selection, r.cpu_seconds, cpu_per_wall(r), speedup(r),
        r.fmeasure, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
