#include "common.h"

#include <sys/resource.h>

#include <cstdio>
#include <fstream>
#include <functional>

#include "check/fingerprint.h"

namespace perfbench {

const std::vector<MetricSpec>& EndToEndMetrics() {
  // Times are CPU seconds (user + system, all threads), not wall time: on a
  // host whose neighbours steal CPU the wall time of the same work moved
  // 2x between runs, its CPU time 5% (README.md "End-to-end metrics").
  // cpu_per_op_s is one cold match (match_batch), one request
  // (service_open) or one transform op (csv_transform).
  static const std::vector<MetricSpec> kMetrics = {
      {"cpu_per_op_s", "s"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"match.session_s", "s"},
      {"match.base_matches", "count"},
      {"core.inference_s", "s"},
      {"core.candidate_views", "count"},
      {"relational.view_scan_s", "s"},
      {"relational.view_rows", "count"},
      {"core.scoring_s", "s"},
      {"core.view_matches", "count"},
      {"core.selection_s", "s"},
      {"exec.cpu_util", "ratio"},
      {"service.admit_p50_s", "s"},
      {"service.admit_p90_s", "s"},
      {"service.queue_p50_s", "s"},
      {"service.queue_p90_s", "s"},
      {"service.run_p50_s", "s"},
      {"service.run_p90_s", "s"},
      {"service.cache_hit_ratio", "ratio"},
      {"service.cache_hits", "count"},
      {"service.cache_misses", "count"},
      {"service.cache_evictions", "count"},
      {"service.dedup_ratio", "ratio"},
      {"service.generator_lag_p90_s", "s"},
      {"service.generator_lag_max_s", "s"},
      {"service.session_share", "ratio"},
      {"relational.csv_read_s", "s"},
      {"relational.csv_read_mb_s", "MB/s"},
      {"relational.csv_scan_s", "s"},
      {"relational.csv_parse_s", "s"},
      {"core.sample_match_s", "s"},
      {"mapping.generate_s", "s"},
      {"mapping.execute_s", "s"},
      {"mapping.rows_out", "count"},
      {"relational.csv_write_s", "s"},
      {"relational.csv_write_mb", "MB"},
      {"trace.overhead_ratio", "ratio"},
  };
  return kMetrics;
}

void RunResult::FailOp(const std::string& why) {
  ++failed;
  std::fprintf(stderr, "op failed: %s\n", why.c_str());
}

void RunResult::Invalidate(const std::string& why) {
  valid = false;
  std::fprintf(stderr, "run invalid: %s\n", why.c_str());
}

void PrintQuantile(const std::string& name, double value, size_t n,
                   const char* unit) {
  std::printf("%-34s %.6g %s (n=%zu)\n", name.c_str(), value, unit, n);
}

void PrintValue(const std::string& name, double value, const char* unit) {
  std::printf("%-34s %.6g %s\n", name.c_str(), value, unit);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double CpuSeconds() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

uint64_t FingerprintHash(const csm::ContextMatchResult& result) {
  return std::hash<std::string>{}(csm::check::FingerprintResult(result));
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

void SpanLog::Record(const char* name, uint64_t op, Clock::time_point start,
                     Clock::time_point end) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, op, start, end});
}

std::vector<double> SpanLog::PerOpTotals(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<uint64_t, double> totals;
  for (const Span& span : spans_) {
    if (std::string_view(span.name) == kOpSpan) totals.emplace(span.op, 0.0);
  }
  for (const Span& span : spans_) {
    if (std::string_view(span.name) != name) continue;
    auto it = totals.find(span.op);
    if (it != totals.end()) it->second += Seconds(span.start, span.end);
  }
  std::vector<double> out;
  out.reserve(totals.size());
  for (const auto& [op, total] : totals) out.push_back(total);
  return out;
}

std::vector<double> SpanLog::Durations(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (std::string_view(span.name) == name) {
      out.push_back(Seconds(span.start, span.end));
    }
  }
  return out;
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  auto micros = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::microseconds>(t - origin_)
        .count();
  };
  for (const Span& span : spans_) {
    const bool root = std::string_view(span.name) == kOpSpan;
    out << "{\"name\": \"" << span.name << "\", \"op\": " << span.op
        << ", \"parent\": " << (root ? "null" : "\"op\"")
        << ", \"start_us\": " << micros(span.start)
        << ", \"end_us\": " << micros(span.end) << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
