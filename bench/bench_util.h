// Shared trial runners for the benches: one ContextMatch run over a
// generated data set, reporting the Section 5 quality metrics plus phase
// timings and per-unit latency quantiles from the run's PhaseReport.
//
// Set CSM_BENCH_TRACE=<prefix> to make every trial write a Chrome trace
// (load in chrome://tracing or https://ui.perfetto.dev) to
// "<prefix>-<dataset>-<seed>.json".

#ifndef CSM_BENCH_BENCH_UTIL_H_
#define CSM_BENCH_BENCH_UTIL_H_

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "core/match_engine.h"
#include "datagen/grades_gen.h"
#include "datagen/retail_gen.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "obs/trace.h"

namespace csm {
namespace bench {

// Environment knobs come from the shared BenchConfig (harness/experiment.h)
// — use GlobalBenchConfig() instead of reading CSM_BENCH_* directly.

/// One ContextMatch run on the data set `make` (MakeRetailDataset or
/// MakeGradesDataset) builds from `data_options` at `seed`: its quality,
/// phase seconds and per-unit p95 latencies.  With CSM_BENCH_TRACE set, it
/// writes the run's Chrome trace to "<prefix>-<name>-<seed>.json".
template <typename Make, typename Options>
MetricMap MatchTrial(Make make, const std::string& name, Options data_options,
                     ContextMatchOptions match_options, uint64_t seed) {
  data_options.seed = seed;
  match_options.seed = seed ^ 0x9e3779b97f4a7c15ULL;
  const auto data = make(data_options);
  MatchEngine engine(match_options);
  obs::Tracer tracer;
  const char* trace_prefix = GlobalBenchConfig().TracePrefix();
  if (trace_prefix != nullptr) engine.set_tracer(&tracer);
  MatchRequest request;
  request.source = BorrowDatabase(data.source);
  request.target = BorrowDatabase(data.target);
  const ContextMatchResult result = std::move(engine.Execute(request).result);
  if (trace_prefix != nullptr) {
    tracer.WriteChromeTrace(std::string(trace_prefix) + "-" + name + "-" +
                            std::to_string(seed) + ".json");
  }
  const MatchQuality quality = EvaluateMatches(data.truth, result.matches);
  const obs::PhaseReport& phases = result.phases;
  return {{"fmeasure", quality.fmeasure},
          {"accuracy", quality.accuracy},
          {"precision", quality.precision},
          {"views", static_cast<double>(result.pool.candidate_views.size())},
          {"selected", static_cast<double>(result.selected_views.size())},
          {"match_seconds", result.TotalSeconds()},
          {"standard_match_seconds", phases.Seconds("standard_match")},
          {"inference_seconds", phases.Seconds("inference")},
          {"scoring_seconds", phases.Seconds("scoring")},
          {"selection_seconds", phases.Seconds("selection")},
          {"threads", static_cast<double>(result.threads_used)},
          {"scoring_view_p95_seconds",
           phases.Histogram("scoring.view_seconds").p95},
          {"inference_cell_p95_seconds",
           phases.Histogram("inference.cell_seconds").p95}};
}

/// Baseline retail configuration used across the figures (gamma = 4,
/// tau = 0.5, omega = 0.1 unless the figure sweeps it).
inline RetailOptions DefaultRetail() {
  RetailOptions options;
  options.num_items = 300;
  options.gamma = 4;
  return options;
}

inline ContextMatchOptions DefaultMatch() {
  ContextMatchOptions options;
  options.tau = 0.5;
  options.omega = 0.1;
  options.inference = ViewInferenceKind::kSrcClass;
  options.selection = SelectionPolicy::kQualTable;
  options.early_disjuncts = true;
  options.threads = GlobalBenchConfig().Threads(/*default_threads=*/1);
  return options;
}

/// Reads "hardware_concurrency": N out of a previously written bench JSON;
/// 0 when the file does not exist or carries no such field.
inline size_t RecordedHardwareConcurrency(const std::string& json_path) {
  std::ifstream in(json_path);
  if (!in) return 0;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  const std::string key = "\"hardware_concurrency\":";
  const size_t pos = text.find(key);
  if (pos == std::string::npos) return 0;
  return static_cast<size_t>(
      std::strtoull(text.c_str() + pos + key.size(), nullptr, 10));
}

/// The speedup-record overwrite guard: a JSON recorded on a machine with
/// more cores than this one must not be silently replaced by a run that
/// cannot exhibit any parallel speedup (that is exactly how a stale 1-core
/// record once shipped as the repo's official scaling data).  Returns true
/// when writing `json_path` is allowed: the prior record's core count is
/// <= `hardware`, there is no prior record, or CSM_BENCH_FORCE is set.
inline bool SpeedupRecordWriteAllowed(const std::string& json_path,
                                      size_t hardware) {
  const size_t recorded = RecordedHardwareConcurrency(json_path);
  if (recorded <= hardware || GlobalBenchConfig().force) return true;
  std::fprintf(stderr,
               "REFUSING to overwrite %s: it was recorded with "
               "hardware_concurrency=%zu but this machine has %zu core%s.\n"
               "Re-run on a machine with >= %zu cores, or set "
               "CSM_BENCH_FORCE=1 to overwrite anyway.\n",
               json_path.c_str(), recorded, hardware,
               hardware == 1 ? "" : "s", recorded);
  return false;
}

/// User plus system CPU seconds this process has used so far, over all its
/// threads.  Recorded beside wall time, CPU/wall shows how many cores a
/// multi-thread run actually got on a shared host.
inline double ProcessCpuSeconds() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

}  // namespace bench
}  // namespace csm

#endif  // CSM_BENCH_BENCH_UTIL_H_
