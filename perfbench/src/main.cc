// perfbench: runs one benchmark workload against the csm library and prints
// its metrics.
//
//   perfbench --workload <match_batch|service_open|csv_transform>
//             --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//
// Human-readable report lines come first; the last line of stdout is one
// JSON object {"correct", "attempted", "failed", "metrics"}.  With
// --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones (common.cc).  The seed only shapes the generated inputs;
// the library never sees it except through them.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "check/invariants.h"
#include "common.h"

namespace perfbench {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizerMacro = true;
#else
constexpr bool kSanitizerMacro = false;
#endif

/// Refuses builds whose numbers would mislead: invariant checks compiled
/// in, sanitizers, or an unoptimized build type.
bool BuildIsBenchmarkable() {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  const std::string sanitizer = PERFBENCH_SANITIZER;
  if (csm::check::kInvariantsEnabled) {
    std::fprintf(stderr, "refusing: built with CSM_CHECKS=ON\n");
    return false;
  }
  if (kSanitizerMacro || !sanitizer.empty()) {
    std::fprintf(stderr, "refusing: sanitizer build (%s)\n",
                 sanitizer.c_str());
    return false;
  }
  if (build_type != "Release" && build_type != "RelWithDebInfo") {
    std::fprintf(stderr, "refusing: build type '%s' is not optimized\n",
                 build_type.c_str());
    return false;
  }
  return true;
}

bool ParseArgs(int argc, char** argv, RunConfig* config) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      config->trace = value == "1";
    } else if (flag == "--work-dir") {
      config->work_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return have_workload && config->seconds > 0 && !config->work_dir.empty() &&
         argc % 2 == 1;
}

void PrintResultLine(const RunResult& result, bool trace) {
  const bool correct = result.valid && result.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  const auto& specs = trace ? PerLayerMetrics() : EndToEndMetrics();
  for (size_t i = 0; i < specs.size(); ++i) {
    auto it = result.metrics.find(specs[i].name);
    const double value = it == result.metrics.end() ? 0.0 : it->second;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", specs[i].name, value, specs[i].unit);
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig config;
  if (!ParseArgs(argc, argv, &config)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --work-dir <dir>\n");
    return 2;
  }
  if (!BuildIsBenchmarkable()) return 3;

  std::printf("host: nproc=%ld engine_threads=%zu build_type=%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), kEngineThreads,
              PERFBENCH_BUILD_TYPE);
  std::printf("run: workload=%s seed=%llu seconds=%g trace=%d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);

  RunResult result;
  if (config.workload == "match_batch") {
    result = RunMatchBatch(config);
  } else if (config.workload == "service_open") {
    result = RunServiceOpen(config);
  } else if (config.workload == "csv_transform") {
    result = RunCsvTransform(config);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", config.workload.c_str());
    return 2;
  }
  result.Set("peak_rss_mb", PeakRssMb());
  if (!config.trace) {
    for (const MetricSpec& spec : EndToEndMetrics()) {
      if (result.metrics.count(spec.name) == 0) {
        std::fprintf(stderr, "workload did not report %s\n", spec.name);
        return 4;
      }
    }
  }
  if (result.attempted == 0) {
    std::fprintf(stderr, "no op completed in %g s\n", config.seconds);
    return 4;
  }
  std::printf("ops: attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  std::fflush(stdout);
  PrintResultLine(result, config.trace);
  return 0;
}
