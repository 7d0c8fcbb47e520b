// Shared pieces of the perfbench binary: run configuration, the result
// every workload fills in, the metric catalogue, process counters, and the
// span log of the traced runs.
//
// Layers are timed from the outside: a traced run wraps each call into a
// layer's public function in a span recorded here.  Nothing inside src/ is
// instrumented for the benchmark.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/context_match.h"
#include "quantile.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}
inline double SecondsSince(Clock::time_point start) {
  return Seconds(start, Clock::now());
}

/// SplitMix64 of (seed, salt): derives the seed of one generated input from
/// the workload seed.
inline uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Engine worker threads in every workload: fixed, not "all cores", so a
/// result does not change meaning with the host.
inline constexpr size_t kEngineThreads = 4;

/// Set-up is repeated this many times per run and its median reported.
inline constexpr size_t kSetupRepeats = 3;

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for files a workload writes (CSV inputs and outputs,
  /// the span dump); created by the caller.
  std::string work_dir;
};

/// One metric of the catalogue: name, unit.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Metrics of an untraced run; every workload reports all of them.
const std::vector<MetricSpec>& EndToEndMetrics();
/// Metrics of a traced run.  A layer the workload never calls reads 0.
const std::vector<MetricSpec>& PerLayerMetrics();

/// What a workload run produced.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// False when a run-level check failed (e.g. the open-loop generator fell
  /// behind, or traced outputs differ from untraced ones).
  bool valid = true;
  std::map<std::string, double> metrics;

  void Set(const std::string& name, double value) { metrics[name] = value; }
  /// Counts one failed op and says why on stderr.
  void FailOp(const std::string& why);
  /// Marks the whole run invalid and says why on stderr.
  void Invalidate(const std::string& why);
};

/// Prints "name = value unit (n=...)" for a percentile on stdout.
void PrintQuantile(const std::string& name, double value, size_t n,
                   const char* unit);
/// Prints "name = value unit" on stdout.
void PrintValue(const std::string& name, double value, const char* unit);

/// Peak resident set of this process (getrusage ru_maxrss), in MB.
double PeakRssMb();
/// User + system CPU seconds consumed by this process so far.
double CpuSeconds();

/// Runs `setup` kSetupRepeats times; prints the median CPU and wall seconds
/// and returns the median CPU seconds.
template <typename Fn>
double TimeSetup(Fn&& setup) {
  std::vector<double> cpu, wall;
  for (size_t i = 0; i < kSetupRepeats; ++i) {
    const double cpu_start = CpuSeconds();
    const auto start = Clock::now();
    setup();
    wall.push_back(SecondsSince(start));
    cpu.push_back(CpuSeconds() - cpu_start);
  }
  const double median = NearestRank(cpu, 50);
  PrintQuantile("setup_s (CPU)", median, cpu.size(), "s");
  PrintQuantile("setup_wall_s", NearestRank(wall, 50), wall.size(), "s");
  return median;
}

/// Hash of check::FingerprintResult: equal hashes <=> bit-identical runs
/// (up to hash collisions, which the benchmark accepts).
uint64_t FingerprintHash(const csm::ContextMatchResult& result);

/// Mean of a sample set (0 when empty).
double Mean(const std::vector<double>& samples);

/// In-memory spans of a traced run, written out when the run ends.  Every
/// span belongs to one op (its request id); layer spans are children of the
/// op's root span "op".  Thread-safe.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  /// Runs `fn` inside span `name` of op `op` and returns its result.  With
  /// tracing off this is a plain call.
  template <typename Fn>
  auto Time(const char* name, uint64_t op, Fn&& fn) {
    if (!enabled_) return fn();
    const auto start = Clock::now();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      Record(name, op, start, Clock::now());
    } else {
      auto value = fn();
      Record(name, op, start, Clock::now());
      return value;
    }
  }

  void Record(const char* name, uint64_t op, Clock::time_point start,
              Clock::time_point end);

  /// Per-op total seconds of spans named `name`, one entry per op that has
  /// a root "op" span (0 for ops that made no such call), in op order.
  std::vector<double> PerOpTotals(std::string_view name) const;

  /// Durations of every span named `name`, in record order.
  std::vector<double> Durations(std::string_view name) const;

  /// Writes one JSON object per span ({"name", "op", "parent", "start_us",
  /// "end_us"}, times relative to the log's creation) to `path`.
  bool WriteJsonLines(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    uint64_t op;
    Clock::time_point start;
    Clock::time_point end;
  };

  const bool enabled_;
  const Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// Name of the root span of one op.
inline constexpr const char* kOpSpan = "op";

/// Workload entry points (one translation unit each).
RunResult RunMatchBatch(const RunConfig& config);
RunResult RunServiceOpen(const RunConfig& config);
RunResult RunCsvTransform(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
