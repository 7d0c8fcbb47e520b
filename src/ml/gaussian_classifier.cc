#include "ml/gaussian_classifier.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numbers>
#include <optional>
#include <unordered_map>

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

GaussianLabel GaussianLabel::Of(const DescriptiveStats& stats,
                               size_t total_examples) {
  GaussianLabel label;
  label.mean = stats.Mean();
  label.stddev = std::max(stats.SampleStdDev(), kMinStdDev);
  const double prior = static_cast<double>(stats.count()) /
                       static_cast<double>(total_examples);
  label.log_norm = std::log(prior) - std::log(label.stddev) -
                   0.5 * std::log(2.0 * std::numbers::pi);
  return label;
}

double GaussianClassifier::LogScore(double x, LabelId label) const {
  if (label >= labels_.size() || labels_[label].empty()) {
    return -std::numeric_limits<double>::infinity();
  }
  return GaussianLabel::Of(labels_[label], total_examples_).LogScore(x);
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

GaussianCellModel::GaussianCellModel(const Column& h, const CellRows& rows,
                                     size_t num_atoms)
    : groups_(num_atoms) {
  for (const AtomRow& row : rows.train) {
    const std::optional<double> x = NumericCell(h, row.pos);
    CSM_CHECK(x.has_value()) << "a cell's train rows hold no missing cell";
    groups_[row.atom].rows.push_back(
        static_cast<uint32_t>(train_values_.size()));
    train_values_.push_back(*x);
  }
  for (Group& group : groups_) {
    if (!group.rows.empty()) Fit(&group);
  }
  std::unordered_map<uint64_t, uint32_t> item_of_bits;
  for (const AtomRow& row : rows.test) {
    const std::optional<double> x = NumericCell(h, row.pos);
    CSM_CHECK(x.has_value()) << "a cell's test rows hold no missing cell";
    const auto [it, inserted] = item_of_bits.try_emplace(
        std::bit_cast<uint64_t>(*x),
        static_cast<uint32_t>(item_values_.size()));
    if (inserted) item_values_.push_back(*x);
    AddTestRow(it->second, row);
  }
  FinishTestRows();
}

void GaussianCellModel::Fit(Group* group) const {
  DescriptiveStats stats;
  for (uint32_t r : group->rows) stats.Add(train_values_[r]);
  group->label = GaussianLabel::Of(stats, train_values_.size());
}

double GaussianCellModel::Score(uint32_t item, size_t group) const {
  if (groups_[group].rows.empty()) {
    return -std::numeric_limits<double>::infinity();
  }
  return groups_[group].label.LogScore(item_values_[item]);
}

void GaussianCellModel::PredictAll(const std::vector<size_t>& label_order,
                                   std::vector<LabelId>* predicted) const {
  predicted->resize(num_items());
  for (uint32_t item = 0; item < num_items(); ++item) {
    const double x = item_values_[item];
    LabelId best = kNoLabel;
    double best_score = -std::numeric_limits<double>::infinity();
    for (LabelId label = 0; label < label_order.size(); ++label) {
      const Group& group = groups_[label_order[label]];
      if (group.rows.empty()) continue;
      const double score = group.label.LogScore(x);
      // The lower id keeps an exact tie (GaussianClassifier::Classify).
      if (score > best_score) {
        best = label;
        best_score = score;
      }
    }
    (*predicted)[item] = best;
  }
}

void GaussianCellModel::Merge(size_t a, size_t b) {
  CSM_CHECK(a < b && b < groups_.size());
  Group& into = groups_[a];
  const std::vector<uint32_t>& from = groups_[b].rows;
  if (!from.empty()) {
    std::vector<uint32_t> merged(into.rows.size() + from.size());
    std::merge(into.rows.begin(), into.rows.end(), from.begin(), from.end(),
               merged.begin());
    into.rows = std::move(merged);
    Fit(&into);
  }
  groups_.erase(groups_.begin() + static_cast<ptrdiff_t>(b));
}

}  // namespace csm
