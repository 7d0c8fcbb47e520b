#include "ml/gaussian_classifier.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <optional>

#include "common/logging.h"

namespace csm {
namespace {

/// The cell as a double (ints widen), or nullopt when it is missing: NULL,
/// NaN or +-inf.
std::optional<double> NumericCell(const Column& column, size_t row) {
  CSM_CHECK(column.type() != ValueType::kString)
      << "GaussianClassifier reads numeric columns, got string";
  if (IsMissingCell(column, row)) return std::nullopt;
  if (column.type() == ValueType::kInt) {
    return static_cast<double>(column.ints()[row]);
  }
  return column.reals()[row];
}

}  // namespace

void GaussianClassifier::Train(const Column& column, size_t row,
                               LabelId label) {
  CSM_CHECK(label != kNoLabel) << "kNoLabel is not a trainable label";
  const std::optional<double> x = NumericCell(column, row);
  if (!x.has_value()) return;
  if (label >= labels_.size()) labels_.resize(size_t{label} + 1);
  labels_[label].Add(*x);
  ++total_examples_;
}

double GaussianClassifier::LogScore(double x, LabelId label) const {
  if (label >= labels_.size() || labels_[label].empty()) {
    return -std::numeric_limits<double>::infinity();
  }
  const DescriptiveStats& stats = labels_[label];
  const double prior = static_cast<double>(stats.count()) /
                       static_cast<double>(total_examples_);
  const double stddev = std::max(stats.SampleStdDev(), kMinStdDev);
  const double z = (x - stats.Mean()) / stddev;
  return std::log(prior) - std::log(stddev) -
         0.5 * std::log(2.0 * std::numbers::pi) - 0.5 * z * z;
}

LabelId GaussianClassifier::Classify(const Column& column, size_t row) const {
  const std::optional<double> x = NumericCell(column, row);
  if (!x.has_value()) return kNoLabel;
  LabelId best = kNoLabel;
  double best_score = -std::numeric_limits<double>::infinity();
  for (LabelId label = 0; label < labels_.size(); ++label) {
    if (labels_[label].empty()) continue;
    const double score = LogScore(*x, label);
    if (score > best_score) {
      best = label;
      best_score = score;
    }
  }
  return best;
}

}  // namespace csm
