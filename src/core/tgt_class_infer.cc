#include "core/tgt_class_infer.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "core/clustered_view_gen.h"
#include "core/src_class_infer.h"
#include "ml/gaussian_classifier.h"
#include "ml/naive_bayes.h"

namespace csm {

namespace {

bool IsNumeric(ValueType type) {
  return type == ValueType::kInt || type == ValueType::kReal;
}

/// The target's columns of one type family — string, or int and real —
/// ranked by "table.attr" name, so the lower label of an exact score tie is
/// the smaller name; coinciding names keep table and attribute order.
std::vector<const Column*> RankedTargetColumns(bool numeric,
                                               const Database& target) {
  std::vector<std::pair<std::string, const Column*>> columns;
  for (const Table& table : target.tables()) {
    for (size_t c = 0; c < table.schema().num_attributes(); ++c) {
      const AttributeDef& attr = table.schema().attribute(c);
      if (numeric ? !IsNumeric(attr.type) : attr.type != ValueType::kString) {
        continue;
      }
      columns.emplace_back(table.name() + "." + attr.name, &table.column(c));
    }
  }
  std::stable_sort(
      columns.begin(), columns.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<const Column*> ranked;
  ranked.reserve(columns.size());
  for (const auto& [name, column] : columns) ranked.push_back(column);
  return ranked;
}

}  // namespace

TargetTags::TargetTags(const TableView& source_sample,
                       const std::vector<std::string>& evidence,
                       const Database& target_sample) {
  const PosList positions = source_sample.Positions();
  for (bool numeric : {false, true}) {
    std::vector<const Column*> family;
    for (const std::string& name : evidence) {
      const Column& h =
          source_sample.column(source_sample.schema().AttributeIndex(name));
      if (IsNumeric(h.type()) == numeric) family.push_back(&h);
    }
    if (family.empty()) continue;
    const std::vector<const Column*> labels =
        RankedTargetColumns(numeric, target_sample);
    std::vector<std::vector<uint32_t>> items;
    std::unique_ptr<CellModel> model;
    if (numeric) {
      model = std::make_unique<GaussianCellModel>(labels, family, positions,
                                                  &items);
    } else {
      model = std::make_unique<NaiveBayesCellModel>(labels, family, positions,
                                                    &items);
    }
    std::vector<size_t> rank_order(labels.size());
    std::iota(rank_order.begin(), rank_order.end(), size_t{0});
    std::vector<LabelId> predicted;
    model->PredictAll(rank_order, &predicted);
    for (size_t e = 0; e < family.size(); ++e) {
      columns_.push_back(family[e]);
      std::vector<LabelId>& tags =
          tags_.emplace_back(source_sample.base().num_rows(), kNoLabel);
      for (size_t k = 0; k < positions.size(); ++k) {
        if (items[e][k] != kNoItem) tags[positions[k]] = predicted[items[e][k]];
      }
    }
  }
}

const std::vector<LabelId>& TargetTags::Of(const Column& h) const {
  const auto it = std::find(columns_.begin(), columns_.end(), &h);
  CSM_CHECK(it != columns_.end()) << "not an evidence column of the tags";
  return tags_[static_cast<size_t>(it - columns_.begin())];
}

BestCatCellModel::BestCatCellModel(const std::vector<LabelId>& tags,
                                   const CellRows& rows, size_t num_atoms)
    : groups_(num_atoms) {
  // Train tags numbered in first-seen order; kNoLabel is a tag like any
  // other.
  std::unordered_map<LabelId, uint32_t> train_tag;
  std::vector<uint32_t> row_tag;
  row_tag.reserve(rows.train.size());
  for (const AtomRow& row : rows.train) {
    const auto [it, inserted] = train_tag.try_emplace(
        tags[row.pos], static_cast<uint32_t>(tag_totals_.size()));
    if (inserted) tag_totals_.push_back(0);
    ++tag_totals_[it->second];
    row_tag.push_back(it->second);
  }
  for (size_t r = 0; r < rows.train.size(); ++r) {
    Group& group = groups_[rows.train[r].atom];
    if (group.joint.empty()) group.joint.assign(tag_totals_.size(), 0);
    ++group.joint[row_tag[r]];
    ++group.total;
  }
  std::unordered_map<LabelId, uint32_t> item_of_tag;
  for (const AtomRow& row : rows.test) {
    const LabelId tag = tags[row.pos];
    const auto [it, inserted] = item_of_tag.try_emplace(
        tag, static_cast<uint32_t>(item_tag_.size()));
    if (inserted) {
      const auto seen = train_tag.find(tag);
      item_tag_.push_back(seen == train_tag.end() ? kUnseenTag
                                                  : seen->second);
    }
    AddTestRow(it->second, row);
  }
  FinishTestRows();
}

double BestCatCellModel::Score(uint32_t item, size_t group) const {
  const uint32_t tag = item_tag_[item];
  const Group& g = groups_[group];
  if (tag == kUnseenTag || g.total == 0) return 0.0;
  return BestCatScore(g.joint[tag], tag_totals_[tag], g.total);
}

void BestCatCellModel::PredictAll(const std::vector<size_t>& label_order,
                                  std::vector<LabelId>* predicted) const {
  predicted->resize(num_items());
  for (uint32_t item = 0; item < num_items(); ++item) {
    LabelId best = kNoLabel;
    double best_score = -1.0;
    size_t best_frequency = 0;
    for (LabelId label = 0; label < label_order.size(); ++label) {
      const size_t frequency = groups_[label_order[label]].total;
      if (frequency == 0) continue;
      const double score = Score(item, label_order[label]);
      if (BeatsBest(score, frequency, best_score, best_frequency)) {
        best = label;
        best_score = score;
        best_frequency = frequency;
      }
    }
    (*predicted)[item] = best;
  }
}

void BestCatCellModel::Merge(size_t a, size_t b) {
  CSM_CHECK(a < b && b < groups_.size());
  Group& into = groups_[a];
  Group& from = groups_[b];
  if (from.total > 0) {
    if (into.joint.empty()) {
      into.joint = std::move(from.joint);
    } else {
      for (size_t t = 0; t < into.joint.size(); ++t) {
        into.joint[t] += from.joint[t];
      }
    }
    into.total += from.total;
  }
  groups_.erase(groups_.begin() + static_cast<ptrdiff_t>(b));
}

std::vector<CandidateView> TgtClassInfer::InferCandidateViews(
    const InferenceInput& input, Rng& rng) {
  if (input.matches == nullptr || input.matches->empty()) return {};
  if (!input.source_sample.valid() || input.source_sample.num_rows() == 0) {
    return {};
  }
  CSM_CHECK(input.target_sample != nullptr);
  CategoricalSplit attributes = InferenceAttributes(input, categorical_);
  if (attributes.categorical.empty()) return {};

  const TargetTags tags(input.source_sample, attributes.non_categorical,
                        *input.target_sample);
  ClassifierFactory factory = [&](const Column& h, const CellRows& rows,
                                  size_t num_atoms) {
    return std::make_unique<BestCatCellModel>(tags.Of(h), rows, num_atoms);
  };
  std::vector<ViewFamily> families = ClusteredViewGen(
      input.source_sample, factory, clustered_, categorical_,
      input.early_disjuncts, rng, std::move(attributes.categorical),
      std::move(attributes.non_categorical), input.pool, input.obs,
      input.cancel);
  return CandidatesFromFamilies(families);
}

}  // namespace csm
