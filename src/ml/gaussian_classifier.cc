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
      << "GaussianCellModel reads numeric columns, got string";
  if (IsMissingCell(column, row)) return std::nullopt;
  if (column.type() == ValueType::kInt) {
    return static_cast<double>(column.ints()[row]);
  }
  return column.reals()[row];
}

}  // namespace

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

GaussianCellModel::GaussianCellModel(const Column& h, const CellRows& rows,
                                     size_t num_atoms)
    : groups_(num_atoms) {
  for (const AtomRow& row : rows.train) {
    const std::optional<double> x = NumericCell(h, row.pos);
    CSM_CHECK(x.has_value()) << "a cell's train rows hold no missing cell";
    AddTrainValue(*x, row.atom);
  }
  for (Group& group : groups_) {
    if (!group.rows.empty()) Fit(&group);
  }
  std::unordered_map<uint64_t, uint32_t> item_of_bits;
  for (const AtomRow& row : rows.test) {
    const std::optional<double> x = NumericCell(h, row.pos);
    CSM_CHECK(x.has_value()) << "a cell's test rows hold no missing cell";
    AddTestRow(ItemOf(*x, &item_of_bits), row);
  }
  FinishTestRows();
}

GaussianCellModel::GaussianCellModel(
    const std::vector<const Column*>& labels,
    const std::vector<const Column*>& evidence, const PosList& positions,
    std::vector<std::vector<uint32_t>>* items)
    : groups_(labels.size()) {
  for (size_t g = 0; g < labels.size(); ++g) {
    for (RowId r = 0; r < labels[g]->size(); ++r) {
      const std::optional<double> x = NumericCell(*labels[g], r);
      if (x.has_value()) AddTrainValue(*x, g);
    }
  }
  for (Group& group : groups_) {
    if (!group.rows.empty()) Fit(&group);
  }
  std::unordered_map<uint64_t, uint32_t> item_of_bits;
  items->assign(evidence.size(), {});
  for (size_t e = 0; e < evidence.size(); ++e) {
    std::vector<uint32_t>& out = (*items)[e];
    out.reserve(positions.size());
    for (RowId pos : positions) {
      const std::optional<double> x = NumericCell(*evidence[e], pos);
      out.push_back(x.has_value() ? ItemOf(*x, &item_of_bits) : kNoItem);
      if (x.has_value()) AddItem(out.back(), pos);
    }
  }
}

void GaussianCellModel::AddTrainValue(double x, size_t group_index) {
  groups_[group_index].rows.push_back(
      static_cast<uint32_t>(train_values_.size()));
  train_values_.push_back(x);
}

uint32_t GaussianCellModel::ItemOf(
    double x, std::unordered_map<uint64_t, uint32_t>* item_of_bits) {
  const auto [it, inserted] = item_of_bits->try_emplace(
      std::bit_cast<uint64_t>(x), static_cast<uint32_t>(item_values_.size()));
  if (inserted) item_values_.push_back(x);
  return it->second;
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
      // The lower label keeps an exact tie.
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
