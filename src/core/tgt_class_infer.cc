#include "core/tgt_class_infer.h"

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
  std::unique_ptr<ValueClassifier> classifier;
  if (numeric) {
    classifier = std::make_unique<GaussianClassifier>();
  } else {
    classifier = std::make_unique<NaiveBayesClassifier>();
  }
  bool trained_any = false;
  for (const Table& table : target_sample.tables()) {
    for (size_t c = 0; c < table.schema().num_attributes(); ++c) {
      const AttributeDef& attr = table.schema().attribute(c);
      const bool numeric_attr =
          attr.type == ValueType::kInt || attr.type == ValueType::kReal;
      if (numeric ? !numeric_attr : attr.type != type) continue;
      const std::string label = table.name() + "." + attr.name;
      const Column& column = table.column(c);
      for (size_t r = 0; r < table.num_rows(); ++r) {
        if (IsMissingCell(column, r)) continue;
        classifier->Train(column, r, label);
        trained_any = true;
      }
    }
  }
  if (!trained_any) return nullptr;
  return classifier;
}

std::string TgtTagClassifier::Tag(const Column& column, size_t row) const {
  if (tagger_ == nullptr) return "";
  return tagger_->Classify(column, row);
}

void TgtTagClassifier::Train(const Column& column, size_t row,
                             const std::string& label) {
  if (IsMissingCell(column, row)) return;
  const std::string tag = Tag(column, row);
  ++tbag_[{tag, label}];
  ++tag_totals_[tag];
  ++label_totals_[label];
  ++total_;
}

double TgtTagClassifier::Score(const std::string& tag,
                               const std::string& label) const {
  auto it = tbag_.find({tag, label});
  if (it == tbag_.end()) return 0.0;
  const double joint = static_cast<double>(it->second);
  const double tag_total =
      static_cast<double>(tag_totals_.at(tag));        // P(v|g) denominator
  const double label_total =
      static_cast<double>(label_totals_.at(label));    // P(g|v) denominator
  return (joint / tag_total) * (joint / label_total);
}

std::string TgtTagClassifier::BestCat(const std::string& tag) const {
  std::string best;
  double best_score = -1.0;
  size_t best_frequency = 0;
  bool tag_seen = tag_totals_.count(tag) > 0;
  for (const auto& [label, frequency] : label_totals_) {
    double score = tag_seen ? Score(tag, label) : 0.0;
    // Ties (including the unseen-tag case where all scores are 0) break
    // toward the more common label, then map order for determinism.
    if (score > best_score ||
        (score == best_score && frequency > best_frequency)) {
      best = label;
      best_score = score;
      best_frequency = frequency;
    }
  }
  return best;
}

std::string TgtTagClassifier::Classify(const Column& column,
                                       size_t row) const {
  if (total_ == 0 || IsMissingCell(column, row)) return "";
  return BestCat(Tag(column, row));
}

std::vector<std::string> TgtTagClassifier::Labels() const {
  std::vector<std::string> out;
  out.reserve(label_totals_.size());
  for (const auto& [label, count] : label_totals_) out.push_back(label);
  return out;
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
