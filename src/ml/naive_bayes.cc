#include "ml/naive_bayes.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace csm {
namespace {

/// Per-thread tokenization scratch (normalized text / gram ids), so the
/// per-row training and classification loops allocate nothing.
struct TokenScratch {
  std::string padded;
  std::vector<GramId> ids;
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
      vocabulary_(std::move(other.vocabulary_)),
      train_token_memo_(std::move(other.train_token_memo_)),
      finalized_(other.finalized_),
      models_(std::move(other.models_)),
      classify_memo_(std::move(other.classify_memo_)) {}

NaiveBayesClassifier& NaiveBayesClassifier::operator=(
    NaiveBayesClassifier&& other) noexcept {
  if (this == &other) return *this;
  total_examples_ = other.total_examples_;
  labels_ = std::move(other.labels_);
  vocabulary_ = std::move(other.vocabulary_);
  train_token_memo_ = std::move(other.train_token_memo_);
  finalized_ = other.finalized_;
  models_ = std::move(other.models_);
  classify_memo_ = std::move(other.classify_memo_);
  return *this;
}

void NaiveBayesClassifier::TrainTokens(const std::vector<GramId>& grams,
                                       const std::string& label) {
  LabelStats& stats = labels_[label];
  ++stats.example_count;
  ++total_examples_;
  uint64_t fresh = 0;
  for (GramId gram : grams) {
    stats.token_counts[gram] += 1.0;
    stats.token_total += 1.0;
    if (vocabulary_.insert(gram).second) ++fresh;
  }
  if (fresh > 0) {
    GlobalTokenKernelStats().grams_interned.fetch_add(
        fresh, std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> lock(model_mu_);
    finalized_ = false;
  }
  std::lock_guard<std::mutex> lock(memo_mu_);
  if (!classify_memo_.empty()) classify_memo_.clear();
}

void NaiveBayesClassifier::Train(const Column& column, size_t row,
                                 const std::string& label) {
  CheckTextColumn(column);
  if (column.IsNull(row)) return;
  const StringDictionary& dict = column.dictionary();
  const uint32_t code = column.codes()[row];
  auto [it, inserted] = train_token_memo_[&dict].try_emplace(code);
  if (inserted) Tokenize(dict.value(code), &it->second);
  TrainTokens(it->second, label);
}

const std::vector<NaiveBayesClassifier::LabelModel>&
NaiveBayesClassifier::Finalized() const {
  std::lock_guard<std::mutex> lock(model_mu_);
  if (finalized_) return models_;
  models_.clear();
  models_.reserve(labels_.size());
  const double num_labels = static_cast<double>(labels_.size());
  const double vocab = static_cast<double>(vocabulary_.size());
  for (const auto& [label, stats] : labels_) {
    LabelModel model;
    model.label = &label;
    model.example_count = stats.example_count;
    // The exact expressions of the original per-call implementation, so the
    // precomputed doubles are bit-identical to recomputing them per row.
    model.log_prior = std::log(
        (static_cast<double>(stats.example_count) + kSmoothing) /
        (static_cast<double>(total_examples_) + kSmoothing * num_labels));
    const double denom = stats.token_total + kSmoothing * (vocab + 1.0);
    model.log_unseen = std::log((0.0 + kSmoothing) / denom);
    model.gram_ids.reserve(stats.token_counts.size());
    for (const auto& [gram, count] : stats.token_counts) {
      model.gram_ids.push_back(gram);
    }
    std::sort(model.gram_ids.begin(), model.gram_ids.end());
    model.gram_log_prob.reserve(model.gram_ids.size());
    for (GramId gram : model.gram_ids) {
      const double count = stats.token_counts.at(gram);
      model.gram_log_prob.push_back(std::log((count + kSmoothing) / denom));
    }
    models_.push_back(std::move(model));
  }
  finalized_ = true;
  return models_;
}

double NaiveBayesClassifier::ScoreTokens(
    const LabelModel& model, const std::vector<GramId>& grams) const {
  double score = model.log_prior;
  for (GramId gram : grams) {
    double term = model.log_unseen;
    auto it = std::lower_bound(model.gram_ids.begin(), model.gram_ids.end(),
                               gram);
    if (it != model.gram_ids.end() && *it == gram) {
      term = model.gram_log_prob[static_cast<size_t>(
          it - model.gram_ids.begin())];
    }
    score += term;
  }
  return score;
}

double NaiveBayesClassifier::LogScore(const Column& column, size_t row,
                                      const std::string& label) const {
  CheckTextColumn(column);
  auto it = labels_.find(label);
  if (it == labels_.end() || total_examples_ == 0) {
    return -std::numeric_limits<double>::infinity();
  }
  const std::vector<LabelModel>& models = Finalized();
  const size_t index =
      static_cast<size_t>(std::distance(labels_.begin(), it));
  std::vector<GramId>& ids = LocalScratch().ids;
  ids.clear();
  if (!column.IsNull(row)) {
    Tokenize(column.dictionary().value(column.codes()[row]), &ids);
  }
  return ScoreTokens(models[index], ids);
}

std::string NaiveBayesClassifier::ClassifyTokens(
    const std::vector<GramId>& grams) const {
  const std::vector<LabelModel>& models = Finalized();
  const std::string* best = nullptr;
  double best_score = -std::numeric_limits<double>::infinity();
  size_t best_frequency = 0;
  for (const LabelModel& model : models) {
    const double score = ScoreTokens(model, grams);
    // Ties break toward the more frequent label, then lexicographically
    // (model order == label map order), for determinism.
    if (score > best_score ||
        (score == best_score && model.example_count > best_frequency)) {
      best = model.label;
      best_score = score;
      best_frequency = model.example_count;
    }
  }
  return best == nullptr ? "" : *best;
}

std::string NaiveBayesClassifier::Classify(const Column& column,
                                           size_t row) const {
  CheckTextColumn(column);
  if (labels_.empty() || column.IsNull(row)) return "";
  const StringDictionary& dict = column.dictionary();
  const uint32_t code = column.codes()[row];
  {
    std::lock_guard<std::mutex> lock(memo_mu_);
    auto dict_it = classify_memo_.find(&dict);
    if (dict_it != classify_memo_.end()) {
      auto it = dict_it->second.find(code);
      if (it != dict_it->second.end()) {
        GlobalTokenKernelStats().nb_memo_hits.fetch_add(
            1, std::memory_order_relaxed);
        return it->second;
      }
    }
  }
  // Miss: compute outside the lock (a racing duplicate computes the same
  // deterministic label), then publish.
  std::vector<GramId>& ids = LocalScratch().ids;
  Tokenize(dict.value(code), &ids);
  std::string label = ClassifyTokens(ids);
  std::lock_guard<std::mutex> lock(memo_mu_);
  classify_memo_[&dict].emplace(code, label);
  return label;
}

std::vector<std::string> NaiveBayesClassifier::Labels() const {
  std::vector<std::string> out;
  out.reserve(labels_.size());
  for (const auto& [label, stats] : labels_) out.push_back(label);
  return out;
}

}  // namespace csm
