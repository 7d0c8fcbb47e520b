// Repetition/averaging helpers for the experiment benches: the paper runs
// "between 8 and 200 random partitions of the sample data" per data point
// and averages; RunRepeated does the same over derived seeds.

#ifndef CSM_HARNESS_EXPERIMENT_H_
#define CSM_HARNESS_EXPERIMENT_H_

#include <chrono>
#include <functional>
#include <map>
#include <string>

#include "stats/descriptive.h"

namespace csm {

/// Named metrics produced by one trial.
using MetricMap = std::map<std::string, double>;

/// Aggregated metrics over repetitions.
struct AggregatedMetrics {
  std::map<std::string, DescriptiveStats> metrics;

  double Mean(const std::string& name) const;
  double StdDev(const std::string& name) const;
};

/// Runs `trial` `repetitions` times with seeds base_seed+1 ... and merges
/// the metric maps.  The trial's wall-clock seconds are recorded under
/// "seconds" (in addition to any metrics the trial reports).
AggregatedMetrics RunRepeated(size_t repetitions, uint64_t base_seed,
                              const std::function<MetricMap(uint64_t seed)>& trial);

/// Simple wall-clock stopwatch.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Every CSM_BENCH_* environment knob, read once.  Bench binaries share
/// this one struct instead of scattering getenv calls: a knob unset in the
/// environment leaves the bench's own default in force (the accessors take
/// that default), so `bench_x` and `CSM_BENCH_REPS=2 bench_x` differ only
/// in the overridden knob.
struct BenchConfig {
  /// CSM_BENCH_REPS: repetitions per data point (0 = bench default).
  size_t reps = 0;
  /// CSM_BENCH_THREADS: engine worker threads; distinguishes "unset" from
  /// an explicit 0 (= all hardware threads).  Results are identical at any
  /// value.
  bool threads_set = false;
  size_t threads = 0;
  /// CSM_BENCH_TRACE: Chrome-trace filename prefix; empty = tracing off.
  std::string trace_prefix;
  /// CSM_BENCH_CLIENTS / CSM_BENCH_REQUESTS: load-generator shape for
  /// bench_service_load (0 = bench default).
  size_t clients = 0;
  size_t requests = 0;
  /// CSM_BENCH_SCALE_ROWS: source rows for bench_scale_sweep (0 = bench
  /// default).
  size_t scale_rows = 0;
  /// CSM_BENCH_FORCE: overrides the speedup-record overwrite guard (a
  /// record from a machine with more cores is otherwise never replaced by
  /// a run from a smaller machine).
  bool force = false;

  /// Reads the environment; never fails (malformed values = unset).
  static BenchConfig FromEnv();

  size_t Repetitions(size_t default_reps) const {
    return reps > 0 ? reps : default_reps;
  }
  size_t Threads(size_t default_threads) const {
    return threads_set ? threads : default_threads;
  }
  /// Null when tracing is off (mirrors the old BenchTracePrefix helper).
  const char* TracePrefix() const {
    return trace_prefix.empty() ? nullptr : trace_prefix.c_str();
  }
};

/// The process-wide BenchConfig, read from the environment on first use.
const BenchConfig& GlobalBenchConfig();

}  // namespace csm

#endif  // CSM_HARNESS_EXPERIMENT_H_
