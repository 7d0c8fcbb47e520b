#include "check/reference_classifier.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "common/logging.h"

namespace csm::check {
namespace {

/// Per-thread scratch (normalized text, gram ids, per-label score sums),
/// so the per-row training and classification loops allocate nothing.
struct TokenScratch {
  std::string padded;
  std::vector<GramId> ids;
  std::vector<double> sums;
};

TokenScratch& LocalScratch() {
  static thread_local TokenScratch scratch;
  return scratch;
}

/// Replaces `*out` with the packed gram ids of `text`.
void Tokenize(std::string_view text, std::vector<GramId>* out) {
  out->clear();
  AppendPackedQGrams(text, NaiveBayesClassifier::kGramQ,
                     &LocalScratch().padded, out);
}

void CheckTextColumn(const Column& column) {
  CSM_CHECK(column.type() == ValueType::kString ||
            column.type() == ValueType::kNull)
      << "NaiveBayesClassifier reads string columns, got "
      << ValueTypeToString(column.type());
}

}  // namespace

NaiveBayesClassifier::NaiveBayesClassifier(
    NaiveBayesClassifier&& other) noexcept
    : total_examples_(other.total_examples_),
      labels_(std::move(other.labels_)),
      gram_index_(std::move(other.gram_index_)),
      train_token_memo_(std::move(other.train_token_memo_)),
      finalized_(other.finalized_),
      model_(std::move(other.model_)),
      classify_memo_(std::move(other.classify_memo_)) {}

NaiveBayesClassifier& NaiveBayesClassifier::operator=(
    NaiveBayesClassifier&& other) noexcept {
  if (this == &other) return *this;
  total_examples_ = other.total_examples_;
  labels_ = std::move(other.labels_);
  gram_index_ = std::move(other.gram_index_);
  train_token_memo_ = std::move(other.train_token_memo_);
  finalized_ = other.finalized_;
  model_ = std::move(other.model_);
  classify_memo_ = std::move(other.classify_memo_);
  return *this;
}

void NaiveBayesClassifier::TrainIndices(const std::vector<uint32_t>& indices,
                                        LabelId label) {
  if (label >= labels_.size()) labels_.resize(size_t{label} + 1);
  LabelStats& stats = labels_[label];
  ++stats.example_count;
  ++total_examples_;
  if (stats.counts.size() < gram_index_.size()) {
    stats.counts.resize(gram_index_.size(), 0.0);
  }
  for (uint32_t d : indices) stats.counts[d] += 1.0;
  // Adding 1.0 per occurrence is exact below 2^53, so one add of the
  // occurrence count gives the same double.
  stats.token_total += static_cast<double>(indices.size());
  {
    std::lock_guard<std::mutex> lock(model_mu_);
    finalized_ = false;
  }
  std::lock_guard<std::mutex> lock(memo_mu_);
  if (!classify_memo_.empty()) classify_memo_.clear();
}

void NaiveBayesClassifier::Train(const Column& column, size_t row,
                                 LabelId label) {
  CheckTextColumn(column);
  CSM_CHECK(label != kNoLabel) << "kNoLabel is not a trainable label";
  if (column.IsNull(row)) return;
  const StringDictionary& dict = column.dictionary();
  const uint32_t code = column.codes()[row];
  auto [it, inserted] = train_token_memo_[&dict].try_emplace(code);
  if (inserted) {
    std::vector<GramId>& ids = LocalScratch().ids;
    Tokenize(dict.value(code), &ids);
    std::vector<uint32_t>& indices = it->second;
    indices.reserve(ids.size());
    const size_t vocab_before = gram_index_.size();
    for (GramId gram : ids) {
      const uint32_t next = static_cast<uint32_t>(gram_index_.size());
      indices.push_back(gram_index_.try_emplace(gram, next).first->second);
    }
    if (gram_index_.size() > vocab_before) {
      GlobalTokenKernelStats().grams_interned.fetch_add(
          gram_index_.size() - vocab_before, std::memory_order_relaxed);
    }
  }
  TrainIndices(it->second, label);
}

const NaiveBayesClassifier::Model& NaiveBayesClassifier::Finalized() const {
  std::lock_guard<std::mutex> lock(model_mu_);
  if (finalized_) return model_;
  const size_t num_labels = static_cast<size_t>(
      std::count_if(labels_.begin(), labels_.end(),
                    [](const LabelStats& s) { return s.example_count > 0; }));
  const size_t vocab = gram_index_.size();
  model_.labels.clear();
  model_.example_counts.clear();
  model_.log_priors.clear();
  model_.log_prob.assign((vocab + 1) * num_labels, 0.0);
  size_t l = 0;
  for (LabelId label = 0; label < labels_.size(); ++label) {
    const LabelStats& stats = labels_[label];
    if (stats.example_count == 0) continue;
    model_.labels.push_back(label);
    model_.example_counts.push_back(stats.example_count);
    // The exact expressions of the original per-call implementation, so the
    // precomputed doubles are bit-identical to recomputing them per row.
    model_.log_priors.push_back(NaiveBayesTerms::LogPrior(
        stats.example_count, total_examples_, num_labels));
    const double denom =
        NaiveBayesTerms::Denominator(stats.token_total, vocab);
    const double log_unseen = NaiveBayesTerms::LogTerm(0.0, denom);
    for (size_t d = 0; d < vocab; ++d) {
      const double count = d < stats.counts.size() ? stats.counts[d] : 0.0;
      model_.log_prob[d * num_labels + l] =
          count > 0.0 ? NaiveBayesTerms::LogTerm(count, denom) : log_unseen;
    }
    model_.log_prob[vocab * num_labels + l] = log_unseen;
    ++l;
  }
  finalized_ = true;
  return model_;
}

void NaiveBayesClassifier::ScoreAll(const Model& model,
                                    const std::vector<GramId>& grams,
                                    std::vector<double>* sums) const {
  const size_t num_labels = model.labels.size();
  const uint32_t unseen = static_cast<uint32_t>(gram_index_.size());
  sums->assign(model.log_priors.begin(), model.log_priors.end());
  double* out = sums->data();
  for (GramId gram : grams) {
    auto it = gram_index_.find(gram);
    const uint32_t d = it == gram_index_.end() ? unseen : it->second;
    const double* row = model.log_prob.data() + size_t{d} * num_labels;
    for (size_t l = 0; l < num_labels; ++l) out[l] += row[l];
  }
}

double NaiveBayesClassifier::LogScore(const Column& column, size_t row,
                                      LabelId label) const {
  CheckTextColumn(column);
  if (label >= labels_.size() || labels_[label].example_count == 0) {
    return -std::numeric_limits<double>::infinity();
  }
  const Model& model = Finalized();
  TokenScratch& scratch = LocalScratch();
  scratch.ids.clear();
  if (!column.IsNull(row)) {
    Tokenize(column.dictionary().value(column.codes()[row]), &scratch.ids);
  }
  ScoreAll(model, scratch.ids, &scratch.sums);
  const auto it =
      std::lower_bound(model.labels.begin(), model.labels.end(), label);
  return scratch.sums[static_cast<size_t>(it - model.labels.begin())];
}

LabelId NaiveBayesClassifier::ClassifyTokens(
    const std::vector<GramId>& grams) const {
  const Model& model = Finalized();
  std::vector<double>& sums = LocalScratch().sums;
  ScoreAll(model, grams, &sums);
  LabelId best = kNoLabel;
  double best_score = -std::numeric_limits<double>::infinity();
  size_t best_frequency = 0;
  for (size_t l = 0; l < sums.size(); ++l) {
    // Model order is id order, so ties go to the more frequent label, then
    // the lower id.
    if (BeatsBest(sums[l], model.example_counts[l], best_score,
                  best_frequency)) {
      best = model.labels[l];
      best_score = sums[l];
      best_frequency = model.example_counts[l];
    }
  }
  return best;
}

LabelId NaiveBayesClassifier::Classify(const Column& column,
                                       size_t row) const {
  CheckTextColumn(column);
  if (total_examples_ == 0 || column.IsNull(row)) return kNoLabel;
  const StringDictionary& dict = column.dictionary();
  const uint32_t code = column.codes()[row];
  {
    std::lock_guard<std::mutex> lock(memo_mu_);
    auto dict_it = classify_memo_.find(&dict);
    if (dict_it != classify_memo_.end()) {
      auto it = dict_it->second.find(code);
      if (it != dict_it->second.end()) return it->second;
    }
  }
  // Miss: compute outside the lock (a racing duplicate computes the same
  // deterministic label), then publish.
  std::vector<GramId>& ids = LocalScratch().ids;
  Tokenize(dict.value(code), &ids);
  const LabelId label = ClassifyTokens(ids);
  std::lock_guard<std::mutex> lock(memo_mu_);
  classify_memo_[&dict].emplace(code, label);
  return label;
}

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

std::unique_ptr<ValueClassifier> ReferenceTargetClassifier(
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

}  // namespace csm::check
