#include "harness/experiment.h"

#include <cerrno>
#include <cstdlib>

namespace csm {

double AggregatedMetrics::Mean(const std::string& name) const {
  auto it = metrics.find(name);
  return it == metrics.end() ? 0.0 : it->second.Mean();
}

double AggregatedMetrics::StdDev(const std::string& name) const {
  auto it = metrics.find(name);
  return it == metrics.end() ? 0.0 : it->second.SampleStdDev();
}

AggregatedMetrics RunRepeated(
    size_t repetitions, uint64_t base_seed,
    const std::function<MetricMap(uint64_t seed)>& trial) {
  AggregatedMetrics out;
  for (size_t rep = 0; rep < repetitions; ++rep) {
    Stopwatch watch;
    MetricMap metrics = trial(base_seed + rep + 1);
    double seconds = watch.Seconds();
    for (const auto& [name, value] : metrics) {
      out.metrics[name].Add(value);
    }
    out.metrics["seconds"].Add(seconds);
  }
  return out;
}

namespace {

/// Parses a non-negative size knob; `min` rejects values below it (so REPS
/// treats 0 as unset while THREADS keeps it as "all hardware threads").
/// The whole value must be a decimal number that fits a long: "5x" or a
/// 20-digit value reads as unset, not as its prefix or LONG_MAX.
bool ReadSizeEnv(const char* name, long min, size_t* out) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return false;
  char* end = nullptr;
  errno = 0;
  long parsed = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || errno == ERANGE || parsed < min) {
    return false;
  }
  *out = static_cast<size_t>(parsed);
  return true;
}

}  // namespace

BenchConfig BenchConfig::FromEnv() {
  BenchConfig config;
  ReadSizeEnv("CSM_BENCH_REPS", /*min=*/1, &config.reps);
  config.threads_set = ReadSizeEnv("CSM_BENCH_THREADS", /*min=*/0,
                                   &config.threads);
  const char* trace = std::getenv("CSM_BENCH_TRACE");
  if (trace != nullptr) config.trace_prefix = trace;
  ReadSizeEnv("CSM_BENCH_CLIENTS", /*min=*/1, &config.clients);
  ReadSizeEnv("CSM_BENCH_REQUESTS", /*min=*/1, &config.requests);
  ReadSizeEnv("CSM_BENCH_SCALE_ROWS", /*min=*/1, &config.scale_rows);
  const char* force = std::getenv("CSM_BENCH_FORCE");
  config.force = force != nullptr && *force != '\0' && *force != '0';
  return config;
}

const BenchConfig& GlobalBenchConfig() {
  static const BenchConfig config = BenchConfig::FromEnv();
  return config;
}

}  // namespace csm
