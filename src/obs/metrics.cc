#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

namespace csm {
namespace obs {
namespace {

/// Bounds of the log-linear range: bucket 0 ends at kLowest, the overflow
/// bucket starts at kHighest.
const double kLowest = std::ldexp(1.0, Histogram::kMinExponent);
const double kHighest =
    std::ldexp(1.0, Histogram::kMinExponent + Histogram::kOctaves);

/// Formats a double compactly for ToString/ToJson (%.9g keeps sub-second
/// latencies exact enough while staying readable).
std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

size_t Histogram::BucketIndex(double value) {
  if (!(value >= kLowest)) return 0;  // also negatives and NaN
  if (value >= kHighest) return kNumBuckets;
  // A normal positive double: biased exponent in bits 52-62, the top four
  // mantissa bits pick the sixteenth of the octave.
  const uint64_t bits = std::bit_cast<uint64_t>(value);
  const int exponent = static_cast<int>(bits >> 52) - 1023;
  const size_t sub = static_cast<size_t>(bits >> 48) & (kSubBuckets - 1);
  return 1 + static_cast<size_t>(exponent - kMinExponent) * kSubBuckets + sub;
}

double Histogram::BucketBound(size_t b) {
  // Bucket b >= 1 spans [2^e (1 + s/16), 2^e (1 + (s+1)/16)) with
  // e = kMinExponent + (b-1)/16 and s = (b-1) % 16; every bound is exact.
  const size_t octave = b / kSubBuckets;
  const size_t sub = b % kSubBuckets;
  return std::ldexp(1.0 + static_cast<double>(sub) / kSubBuckets,
                    kMinExponent + static_cast<int>(octave));
}

void Histogram::Observe(double value) {
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  ++buckets_[BucketIndex(value)];  // kNumBuckets is the overflow bucket
}

void Histogram::MergeFrom(const Histogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
  for (size_t b = 0; b < buckets_.size(); ++b) buckets_[b] += other.buckets_[b];
}

double Histogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  const double rank = q * static_cast<double>(count_);
  uint64_t cumulative = 0;
  for (size_t b = 0; b < buckets_.size(); ++b) {
    if (buckets_[b] == 0) continue;
    const double before = static_cast<double>(cumulative);
    cumulative += buckets_[b];
    if (static_cast<double>(cumulative) < rank) continue;
    // Interpolate inside bucket b.  Bucket 0 spans [0, first bound); the
    // overflow bucket spans [last bound, observed max].
    const double lo = b == 0 ? 0.0 : BucketBound(b - 1);
    const double hi = b < kNumBuckets ? BucketBound(b) : max_;
    const double fraction =
        (rank - before) / static_cast<double>(buckets_[b]);
    const double value = lo + fraction * (std::max(hi, lo) - lo);
    return std::clamp(value, min_, max_);
  }
  return max_;
}

HistogramSummary Histogram::Summary() const {
  HistogramSummary s;
  s.count = count_;
  s.sum = sum_;
  s.min = min_;
  s.max = max_;
  s.p50 = Quantile(0.50);
  s.p95 = Quantile(0.95);
  s.p99 = Quantile(0.99);
  return s;
}

void MetricsRegistry::AddSeconds(const std::string& phase, double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  seconds_[phase] += seconds;
}

double MetricsRegistry::Seconds(const std::string& phase) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = seconds_.find(phase);
  return it == seconds_.end() ? 0.0 : it->second;
}

void MetricsRegistry::AddCounter(const std::string& name, uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_[name] += n;
}

uint64_t MetricsRegistry::Counter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

void MetricsRegistry::SetGauge(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  gauges_[name] = value;
}

void MetricsRegistry::AddGauge(const std::string& name, double delta) {
  std::lock_guard<std::mutex> lock(mu_);
  gauges_[name] += delta;
}

double MetricsRegistry::Gauge(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

void MetricsRegistry::Observe(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  histograms_[name].Observe(value);
}

HistogramSummary MetricsRegistry::Summary(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  return it == histograms_.end() ? HistogramSummary{} : it->second.Summary();
}

PhaseReport MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  PhaseReport report;
  report.seconds = seconds_;
  report.counters = counters_;
  report.gauges = gauges_;
  for (const auto& [name, histogram] : histograms_) {
    report.histograms[name] = histogram.Summary();
  }
  return report;
}

void MetricsRegistry::MergeFrom(const MetricsRegistry& other) {
  // Copy under `other`'s lock, fold under ours (never both at once, so two
  // registries can merge into each other without lock-order issues).
  std::map<std::string, double> seconds;
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, Histogram> histograms;
  {
    std::lock_guard<std::mutex> lock(other.mu_);
    seconds = other.seconds_;
    counters = other.counters_;
    gauges = other.gauges_;
    histograms = other.histograms_;
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, value] : seconds) seconds_[name] += value;
  for (const auto& [name, value] : counters) counters_[name] += value;
  for (const auto& [name, value] : gauges) gauges_[name] = value;
  for (const auto& [name, histogram] : histograms) {
    histograms_[name].MergeFrom(histogram);
  }
}

double PhaseReport::Seconds(const std::string& name) const {
  auto it = seconds.find(name);
  return it == seconds.end() ? 0.0 : it->second;
}

uint64_t PhaseReport::Count(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

double PhaseReport::Gauge(const std::string& name) const {
  auto it = gauges.find(name);
  return it == gauges.end() ? 0.0 : it->second;
}

HistogramSummary PhaseReport::Histogram(const std::string& name) const {
  auto it = histograms.find(name);
  return it == histograms.end() ? HistogramSummary{} : it->second;
}

double PhaseReport::TotalSeconds() const {
  double total = 0.0;
  for (const auto& [name, value] : seconds) total += value;
  return total;
}

std::string PhaseReport::ToString() const {
  std::string out;
  for (const auto& [name, value] : seconds) {
    out += name + ": " + Num(value) + "s\n";
  }
  for (const auto& [name, value] : counters) {
    out += name + ": " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : gauges) {
    out += name + ": " + Num(value) + "\n";
  }
  for (const auto& [name, s] : histograms) {
    out += name + ": count=" + std::to_string(s.count) + " sum=" +
           Num(s.sum) + " min=" + Num(s.min) + " p50=" + Num(s.p50) +
           " p95=" + Num(s.p95) + " p99=" + Num(s.p99) + " max=" +
           Num(s.max) + "\n";
  }
  return out;
}

std::string PhaseReport::ToJson() const {
  std::string out = "{\n";
  auto section = [&out](const char* title, const std::string& body,
                        bool last) {
    out += "  \"";
    out += title;
    out += "\": {" + body + "}";
    out += last ? "\n" : ",\n";
  };
  std::string body;
  for (const auto& [name, value] : seconds) {
    if (!body.empty()) body += ", ";
    body += "\"" + name + "\": " + Num(value);
  }
  section("seconds", body, false);
  body.clear();
  for (const auto& [name, value] : counters) {
    if (!body.empty()) body += ", ";
    body += "\"" + name + "\": " + std::to_string(value);
  }
  section("counters", body, false);
  body.clear();
  for (const auto& [name, value] : gauges) {
    if (!body.empty()) body += ", ";
    body += "\"" + name + "\": " + Num(value);
  }
  section("gauges", body, false);
  body.clear();
  for (const auto& [name, s] : histograms) {
    if (!body.empty()) body += ", ";
    body += "\"" + name + "\": {\"count\": " + std::to_string(s.count) +
            ", \"sum\": " + Num(s.sum) + ", \"min\": " + Num(s.min) +
            ", \"max\": " + Num(s.max) + ", \"p50\": " + Num(s.p50) +
            ", \"p95\": " + Num(s.p95) + ", \"p99\": " + Num(s.p99) + "}";
  }
  section("histograms", body, true);
  out += "}\n";
  return out;
}

}  // namespace obs
}  // namespace csm
