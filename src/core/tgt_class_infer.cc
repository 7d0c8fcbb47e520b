#include "core/tgt_class_infer.h"

#include <algorithm>
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

LabelId TgtTagClassifier::Tag(const Column& column, size_t row) const {
  if (tagger_ == nullptr) return kNoLabel;
  return tagger_->Classify(column, row);
}

void TgtTagClassifier::Train(const Column& column, size_t row,
                             LabelId label) {
  CSM_CHECK(label != kNoLabel) << "kNoLabel is not a trainable label";
  if (IsMissingCell(column, row)) return;
  TagCounts& tag = tbag_[Tag(column, row)];
  if (label >= tag.per_label.size()) tag.per_label.resize(size_t{label} + 1);
  ++tag.per_label[label];
  ++tag.total;
  if (label >= label_totals_.size()) label_totals_.resize(size_t{label} + 1);
  ++label_totals_[label];
  ++total_;
}

double TgtTagClassifier::Score(LabelId tag, LabelId label) const {
  auto it = tbag_.find(tag);
  if (it == tbag_.end() || label >= it->second.per_label.size() ||
      it->second.per_label[label] == 0) {
    return 0.0;
  }
  const double joint = static_cast<double>(it->second.per_label[label]);
  const double tag_total =
      static_cast<double>(it->second.total);          // P(v|g) denominator
  const double label_total =
      static_cast<double>(label_totals_[label]);      // P(g|v) denominator
  return (joint / tag_total) * (joint / label_total);
}

LabelId TgtTagClassifier::BestCat(LabelId tag) const {
  LabelId best = kNoLabel;
  double best_score = -1.0;
  size_t best_frequency = 0;
  const bool tag_seen = tbag_.count(tag) > 0;
  for (LabelId label = 0; label < label_totals_.size(); ++label) {
    const size_t frequency = label_totals_[label];
    if (frequency == 0) continue;
    const double score = tag_seen ? Score(tag, label) : 0.0;
    // Ties (including the unseen-tag case where all scores are 0) break
    // toward the more common label, then the lower id, for determinism.
    if (score > best_score ||
        (score == best_score && frequency > best_frequency)) {
      best = label;
      best_score = score;
      best_frequency = frequency;
    }
  }
  return best;
}

LabelId TgtTagClassifier::Classify(const Column& column, size_t row) const {
  if (total_ == 0 || IsMissingCell(column, row)) return kNoLabel;
  return BestCat(Tag(column, row));
}

std::vector<CandidateView> TgtClassInfer::InferCandidateViews(
    const InferenceInput& input, Rng& rng) {
  if (input.matches == nullptr || input.matches->empty()) return {};
  if (!input.source_sample.valid() || input.source_sample.num_rows() == 0) {
    return {};
  }
  CSM_CHECK(input.target_sample != nullptr);
  std::vector<std::string> labels =
      FilteredLabelAttributes(input, categorical_);
  if (labels.empty()) return {};

  // One shared target classifier per basic type family.
  auto string_tagger = std::shared_ptr<const ValueClassifier>(
      CreateTargetClassifier(ValueType::kString, *input.target_sample));
  auto numeric_tagger = std::shared_ptr<const ValueClassifier>(
      CreateTargetClassifier(ValueType::kReal, *input.target_sample));

  ClassifierFactory factory =
      [&](ValueType evidence_type) -> std::unique_ptr<ValueClassifier> {
    if (evidence_type == ValueType::kInt ||
        evidence_type == ValueType::kReal) {
      return std::make_unique<TgtTagClassifier>(numeric_tagger);
    }
    return std::make_unique<TgtTagClassifier>(string_tagger);
  };
  std::vector<ViewFamily> families = ClusteredViewGen(
      input.source_sample, factory, clustered_, categorical_,
      input.early_disjuncts, rng, std::move(labels), {}, input.pool,
      input.obs, input.cancel);
  return CandidatesFromFamilies(families);
}

}  // namespace csm
