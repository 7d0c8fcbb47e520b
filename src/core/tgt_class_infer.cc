#include "core/tgt_class_infer.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "core/clustered_view_gen.h"
#include "core/src_class_infer.h"
#include "ml/gaussian_classifier.h"
#include "ml/naive_bayes.h"

namespace csm {

std::unique_ptr<ValueClassifier> CreateTargetClassifier(
    ValueType type, const Database& target_sample) {
  // The numeric classifier takes both int and real columns; the string
  // classifier takes string columns only.
  const bool numeric = type == ValueType::kInt || type == ValueType::kReal;
  std::vector<std::pair<std::string, const Column*>> columns;
  for (const Table& table : target_sample.tables()) {
    for (size_t c = 0; c < table.schema().num_attributes(); ++c) {
      const AttributeDef& attr = table.schema().attribute(c);
      const bool numeric_attr =
          attr.type == ValueType::kInt || attr.type == ValueType::kReal;
      if (numeric ? !numeric_attr : attr.type != type) continue;
      columns.emplace_back(table.name() + "." + attr.name, &table.column(c));
    }
  }
  // Label ids rank the columns by name, so the lower id of an exact score
  // tie is the smaller name; coinciding names keep table order.  Neither
  // classifier's model depends on the order its labels train in.
  std::stable_sort(
      columns.begin(), columns.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  std::unique_ptr<ValueClassifier> classifier;
  if (numeric) {
    classifier = std::make_unique<GaussianClassifier>();
  } else {
    classifier = std::make_unique<NaiveBayesClassifier>();
  }
  bool trained_any = false;
  for (LabelId label = 0; label < columns.size(); ++label) {
    const Column& column = *columns[label].second;
    for (size_t r = 0; r < column.size(); ++r) {
      if (IsMissingCell(column, r)) continue;
      classifier->Train(column, r, label);
      trained_any = true;
    }
  }
  if (!trained_any) return nullptr;
  return classifier;
}

BestCatCellModel::BestCatCellModel(const ValueClassifier* tagger,
                                   const Column& h, const CellRows& rows,
                                   size_t num_atoms)
    : groups_(num_atoms) {
  auto tag_of = [&](const AtomRow& row) {
    return tagger == nullptr ? kNoLabel : tagger->Classify(h, row.pos);
  };
  // Train tags numbered in first-seen order; kNoLabel is a tag like any
  // other.
  std::unordered_map<LabelId, uint32_t> train_tag;
  std::vector<uint32_t> row_tag;
  row_tag.reserve(rows.train.size());
  for (const AtomRow& row : rows.train) {
    const auto [it, inserted] = train_tag.try_emplace(
        tag_of(row), static_cast<uint32_t>(tag_totals_.size()));
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
    const LabelId tag = tag_of(row);
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

  // One shared target classifier per basic type family.
  const std::unique_ptr<ValueClassifier> string_tagger =
      CreateTargetClassifier(ValueType::kString, *input.target_sample);
  const std::unique_ptr<ValueClassifier> numeric_tagger =
      CreateTargetClassifier(ValueType::kReal, *input.target_sample);

  ClassifierFactory factory = [&](const Column& h, const CellRows& rows,
                                  size_t num_atoms) {
    const bool numeric =
        h.type() == ValueType::kInt || h.type() == ValueType::kReal;
    return std::make_unique<BestCatCellModel>(
        numeric ? numeric_tagger.get() : string_tagger.get(), h, rows,
        num_atoms);
  };
  std::vector<ViewFamily> families = ClusteredViewGen(
      input.source_sample, factory, clustered_, categorical_,
      input.early_disjuncts, rng, std::move(attributes.categorical),
      std::move(attributes.non_categorical), input.pool, input.obs,
      input.cancel);
  return CandidatesFromFamilies(families);
}

}  // namespace csm
