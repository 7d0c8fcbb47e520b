#include "match/session.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string_view>

#include "common/logging.h"
#include "match/matchers.h"
#include "stats/distributions.h"

namespace csm {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Floor on the per-(matcher, source attribute) score stddev, so a nearly
/// constant score row does not produce saturated z-scores.
constexpr double kMinScoreStddev = 0.05;

}  // namespace

SessionSamples SessionSamples::Of(const Table& source,
                                  const Database& target,
                                  const MatchOptions& options) {
  auto build = [&](const Table& table) {
    return std::make_shared<const TableSamples>(
        table, options.max_training_rows, options.training_sample_seed);
  };
  SessionSamples samples;
  samples.source = build(source);
  samples.targets.reserve(target.tables().size());
  for (const Table& table : target.tables()) {
    samples.targets.push_back(build(table));
  }
  return samples;
}

void TableMatchSession::PrepareSamples(bool score_sources) {
  // Samples drawn under another training cap or seed would hold other bags
  // than the options promise (and than a restore would read).
  auto check = [&](const TableSamples& table) {
    CSM_CHECK(table.max_training_rows() == options_.max_training_rows &&
              table.training_sample_seed() == options_.training_sample_seed)
        << "samples of " << table.table_name()
        << " were drawn under other training options";
  };
  CSM_CHECK(samples_.source != nullptr) << "session needs source samples";
  check(*samples_.source);
  for (const auto& table : samples_.targets) {
    CSM_CHECK(table != nullptr) << "session needs every target's samples";
    check(*table);
    for (const AttributeSample& sample : table->attributes()) {
      targets_.push_back(&sample);
      target_refs_.push_back(sample.ref());
    }
  }

  std::vector<const AttributeSample*> sources;
  if (score_sources) {
    sources.reserve(this->sources().size());
    for (const AttributeSample& sample : this->sources()) {
      sources.push_back(&sample);
    }
  }
  for (auto& matcher : matchers_) matcher->Prepare(sources, targets_);
}

void TableMatchSession::ReplayDistributions() {
  for (size_t m = 0; m < matchers_.size(); ++m) {
    for (size_t s = 0; s < sources().size(); ++s) {
      DescriptiveStats distribution;
      for (size_t t = 0; t < targets_.size(); ++t) {
        double score = raw_scores_[m][s][t];
        if (!std::isnan(score)) distribution.Add(score);
      }
      if (!distribution.empty()) {
        distributions_[DistributionKey{m, s}] = distribution;
      }
    }
  }
}

TableMatchSession::TableMatchSession(
    const Table& source, const Database& target,
    std::vector<std::unique_ptr<AttributeMatcher>> matchers,
    MatchOptions options)
    : TableMatchSession(SessionSamples::Of(source, target, options),
                        std::move(matchers), options) {}

TableMatchSession::TableMatchSession(
    SessionSamples samples,
    std::vector<std::unique_ptr<AttributeMatcher>> matchers,
    MatchOptions options)
    : options_(options),
      matchers_(std::move(matchers)),
      samples_(std::move(samples)) {
  CSM_CHECK(!matchers_.empty()) << "match session needs at least one matcher";
  PrepareSamples(/*score_sources=*/true);

  // Score every applicable (matcher, source, target) triple, one
  // (matcher, source) row per ScoreRow call over the row's applicable
  // targets; the per-(matcher, source) score distributions across targets
  // are then the restore constructor's replay of the same grid.  A NaN
  // score (e.g., NumericMatcher over a bag holding NaN or +-inf) means
  // inapplicable, exactly as ReplayDistributions and PairScore read it.
  const std::vector<AttributeSample>& sources = this->sources();
  raw_scores_.assign(matchers_.size(), {});
  std::vector<const AttributeSample*> row;
  std::vector<size_t> row_targets;
  std::vector<double> row_scores;
  for (size_t m = 0; m < matchers_.size(); ++m) {
    raw_scores_[m].assign(sources.size(),
                          std::vector<double>(targets_.size(), kNaN));
    for (size_t s = 0; s < sources.size(); ++s) {
      if (sources[s].NonNullCount() < options_.min_non_null_values) continue;
      row.clear();
      row_targets.clear();
      for (size_t t = 0; t < targets_.size(); ++t) {
        if (targets_[t]->NonNullCount() < options_.min_non_null_values ||
            !matchers_[m]->Applicable(sources[s], *targets_[t])) {
          continue;
        }
        row.push_back(targets_[t]);
        row_targets.push_back(t);
      }
      if (row.empty()) continue;
      row_scores.resize(row.size());
      matchers_[m]->ScoreRow(sources[s], row, row_scores.data());
      for (size_t k = 0; k < row.size(); ++k) {
        raw_scores_[m][s][row_targets[k]] = row_scores[k];
      }
    }
  }
  ReplayDistributions();
}

TableMatchSession::TableMatchSession(
    const Table& source, const Database& target,
    std::vector<std::unique_ptr<AttributeMatcher>> matchers,
    const MatchOptions& options, RestoredScores scores)
    : TableMatchSession(SessionSamples::Of(source, target, options),
                        std::move(matchers), options, std::move(scores)) {}

TableMatchSession::TableMatchSession(
    SessionSamples samples,
    std::vector<std::unique_ptr<AttributeMatcher>> matchers,
    const MatchOptions& options, RestoredScores scores)
    : options_(options),
      matchers_(std::move(matchers)),
      samples_(std::move(samples)) {
  CSM_CHECK(!matchers_.empty()) << "match session needs at least one matcher";
  PrepareSamples(/*score_sources=*/false);

  CSM_CHECK(scores.raw.size() == matchers_.size())
      << "restored scores have " << scores.raw.size() << " matchers, suite has "
      << matchers_.size();
  for (const auto& per_source : scores.raw) {
    CSM_CHECK(per_source.size() == sources().size())
        << "restored scores do not fit the source schema";
    for (const auto& per_target : per_source) {
      CSM_CHECK(per_target.size() == targets_.size())
          << "restored scores do not fit the target schema";
    }
  }
  raw_scores_ = std::move(scores.raw);
  ReplayDistributions();
}

double TableMatchSession::Confidence(size_t matcher_index,
                                     size_t source_index,
                                     double raw_score) const {
  auto it = distributions_.find(DistributionKey{matcher_index, source_index});
  if (it == distributions_.end()) return 0.0;
  const DescriptiveStats& d = it->second;
  double stddev = std::max(d.PopulationStdDev(), kMinScoreStddev);
  double relative = NormalCdf(ZScore(raw_score, d.Mean(), stddev));
  if (!options_.blend_raw_score) return relative;
  return std::sqrt(relative * std::clamp(raw_score, 0.0, 1.0));
}

MatchScore TableMatchSession::CombineForBag(
    const AttributeSample& sample, size_t source_index, size_t target_index,
    const IndexAlignment* alignment) const {
  MatchScore out;
  double weight_total = 0.0;
  double score_sum = 0.0;
  double confidence_sum = 0.0;
  const AttributeSample& target = *targets_[target_index];
  for (size_t m = 0; m < matchers_.size(); ++m) {
    if (!matchers_[m]->Applicable(sample, target)) continue;
    // Only matchers with a recorded distribution can produce confidences.
    if (distributions_.find(DistributionKey{m, source_index}) ==
        distributions_.end()) {
      continue;
    }
    // A restriction (the only kind with an alignment) scores in its
    // index's vocabulary, a whole-table sample through its own profiles.
    double raw = alignment != nullptr
                     ? matchers_[m]->ScoreAligned(sample, target, *alignment)
                     : matchers_[m]->Score(sample, target);
    if (std::isnan(raw)) continue;  // inapplicable, as in PairScore
    double weight = matchers_[m]->Weight();
    score_sum += weight * raw;
    confidence_sum += weight * Confidence(m, source_index, raw);
    weight_total += weight;
    ++out.matchers_used;
  }
  if (weight_total > 0.0) {
    out.score = score_sum / weight_total;
    out.confidence = confidence_sum / weight_total;
  }
  return out;
}

size_t TableMatchSession::SourceIndex(std::string_view attribute) const {
  for (size_t s = 0; s < sources().size(); ++s) {
    if (sources()[s].ref().attribute == attribute) return s;
  }
  CSM_CHECK(false) << "unknown source attribute '" << attribute << "'";
  return 0;
}

size_t TableMatchSession::TargetIndex(const AttributeRef& target) const {
  for (size_t t = 0; t < target_refs_.size(); ++t) {
    if (target_refs_[t] == target) return t;
  }
  CSM_CHECK(false) << "unknown target attribute '" << target.ToString() << "'";
  return 0;
}

MatchScore TableMatchSession::PairScore(std::string_view source_attribute,
                                        const AttributeRef& target) const {
  size_t s = SourceIndex(source_attribute);
  size_t t = TargetIndex(target);
  MatchScore out;
  double weight_total = 0.0;
  double score_sum = 0.0;
  double confidence_sum = 0.0;
  for (size_t m = 0; m < matchers_.size(); ++m) {
    double raw = raw_scores_[m][s][t];
    if (std::isnan(raw)) continue;
    double weight = matchers_[m]->Weight();
    score_sum += weight * raw;
    confidence_sum += weight * Confidence(m, s, raw);
    weight_total += weight;
    ++out.matchers_used;
  }
  if (weight_total > 0.0) {
    out.score = score_sum / weight_total;
    out.confidence = confidence_sum / weight_total;
  }
  return out;
}

MatchScore TableMatchSession::ScoreRestrictedSample(
    const AttributeSample& sample, const AttributeRef& target,
    const IndexAlignment* alignment) const {
  size_t s = SourceIndex(sample.ref().attribute);
  size_t t = TargetIndex(target);
  if (!sample.restricted()) {
    CSM_CHECK(alignment == nullptr)
        << "an alignment scores restrictions only, not "
        << sample.ref().ToString();
  } else if (alignment != nullptr) {
    CSM_CHECK(alignment->target == t && alignment->index == sample.index())
        << "alignment does not fit " << sample.ref().ToString() << " -> "
        << target.ToString();
  }
  if (sample.NonNullCount() < options_.min_non_null_values) {
    return MatchScore{};
  }
  if (sample.restricted() && alignment == nullptr) {
    const IndexAlignment own = AlignRestricted(sample, target);
    return CombineForBag(sample, s, t, &own);
  }
  return CombineForBag(sample, s, t, alignment);
}

IndexAlignment TableMatchSession::AlignRestricted(
    const AttributeSample& indexed, const AttributeRef& target) const {
  CSM_CHECK(indexed.index() != nullptr)
      << "AlignRestricted needs an Indexed sample or a restriction of "
      << indexed.ref().ToString();
  IndexAlignment alignment;
  alignment.index = indexed.index();
  alignment.target = TargetIndex(target);
  for (const auto& matcher : matchers_) {
    matcher->Align(indexed, *targets_[alignment.target], &alignment);
  }
  return alignment;
}

MatchList TableMatchSession::AcceptedMatches(double tau) const {
  MatchList out;
  for (size_t s = 0; s < sources().size(); ++s) {
    for (size_t t = 0; t < target_refs_.size(); ++t) {
      MatchScore ms = PairScore(sources()[s].ref().attribute,
                                target_refs_[t]);
      if (ms.matchers_used == 0 || ms.confidence < tau) continue;
      Match match;
      match.source = sources()[s].ref();
      match.target = target_refs_[t];
      match.condition = Condition::True();
      match.score = ms.score;
      match.confidence = ms.confidence;
      out.push_back(std::move(match));
    }
  }
  std::sort(out.begin(), out.end(), [](const Match& a, const Match& b) {
    if (a.confidence != b.confidence) return a.confidence > b.confidence;
    if (a.source < b.source) return true;
    if (b.source < a.source) return false;
    return a.target < b.target;
  });
  return out;
}

std::vector<std::string> TableMatchSession::source_attributes() const {
  std::vector<std::string> out;
  out.reserve(sources().size());
  for (const auto& sample : sources()) {
    out.push_back(sample.ref().attribute);
  }
  return out;
}

void TableMatchSession::AppendSerializedScores(std::string* out) const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "scores %zu %zu %zu\n", matchers_.size(),
                sources().size(), targets_.size());
  out->append(buf);
  for (const auto& per_source : raw_scores_) {
    for (const auto& per_target : per_source) {
      for (size_t t = 0; t < per_target.size(); ++t) {
        if (t > 0) out->push_back(' ');
        double v = per_target[t];
        if (std::isnan(v)) {
          out->append("nan");
        } else {
          // Hexfloat: exact round-trip through strtod, no rounding.
          std::snprintf(buf, sizeof(buf), "%a", v);
          out->append(buf);
        }
      }
      out->push_back('\n');
    }
  }
}

StatusOr<TableMatchSession::RestoredScores>
TableMatchSession::ParseSerializedScores(const std::string& blob,
                                         size_t* pos,
                                         const ScoreGridShape& shape) {
  auto fail = [](const char* msg) {
    return Status::InvalidArgument(std::string("session scores: ") + msg);
  };
  auto read_line = [&](std::string_view* line) {
    if (*pos >= blob.size()) return false;
    size_t end = blob.find('\n', *pos);
    if (end == std::string::npos) return false;
    *line = std::string_view(blob).substr(*pos, end - *pos);
    *pos = end + 1;
    return true;
  };

  std::string_view header;
  if (!read_line(&header)) return fail("missing header line");
  size_t matchers = 0, sources = 0, targets = 0;
  if (std::sscanf(std::string(header).c_str(), "scores %zu %zu %zu",
                  &matchers, &sources, &targets) != 3) {
    return fail("bad header line");
  }
  // A corrupted header must not drive allocation: only the expected grid
  // is read.
  if (matchers != shape.matchers) {
    return fail("matcher count does not match the matcher suite");
  }
  if (sources != shape.sources) {
    return fail("score grid does not fit the source schema");
  }
  if (targets != shape.targets) {
    return fail("score grid does not fit the target schema");
  }

  RestoredScores out;
  out.raw.assign(matchers, {});
  for (size_t m = 0; m < matchers; ++m) {
    out.raw[m].assign(sources, std::vector<double>(targets, kNaN));
    for (size_t s = 0; s < sources; ++s) {
      std::string_view line;
      if (!read_line(&line)) return fail("truncated score matrix");
      std::string row(line);  // NUL-terminated scratch for strtod
      const char* cursor = row.c_str();
      for (size_t t = 0; t < targets; ++t) {
        char* after = nullptr;
        double v = std::strtod(cursor, &after);
        if (after == cursor) return fail("short score row");
        out.raw[m][s][t] = v;
        cursor = after;
      }
      // The row must be fully consumed (trailing whitespace only).
      while (*cursor == ' ') ++cursor;
      if (*cursor != '\0') return fail("long score row");
    }
  }
  return out;
}

MatchList StandardMatch(const Table& source, const Database& target,
                        double tau, MatchOptions options) {
  TableMatchSession session(source, target, DefaultMatcherSuite(), options);
  return session.AcceptedMatches(tau);
}

}  // namespace csm
