#include "ml/naive_bayes.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace csm {
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
  const LabelId label = ClassifyTokens(ids);
  std::lock_guard<std::mutex> lock(memo_mu_);
  classify_memo_[&dict].emplace(code, label);
  return label;
}

NaiveBayesCellModel::NaiveBayesCellModel(const Column& h,
                                         const CellRows& rows,
                                         size_t num_atoms)
    : groups_(num_atoms) {
  CheckTextColumn(h);
  constexpr uint32_t kNone = static_cast<uint32_t>(-1);
  // Each distinct train code's dense gram indices, tokenized once; the
  // vocabulary is every gram of the train rows, numbered in first-seen
  // order by dense 3-gram rank (the grams of Tokenize, in its order).
  GramRankSlots vocabulary;
  std::vector<uint32_t> train_slot;  // by code; kNone when not a train code
  std::vector<std::vector<uint32_t>> train_indices;
  TokenScratch& scratch = LocalScratch();
  std::vector<uint32_t> ranks;
  auto tokenize = [&](uint32_t code) {
    ranks.clear();
    AppendQGramRanks(h.dictionary().value(code), &scratch.padded, &ranks);
  };
  for (const AtomRow& row : rows.train) {
    const uint32_t code = h.codes()[row.pos];
    if (code >= train_slot.size()) train_slot.resize(code + 1, kNone);
    if (train_slot[code] != kNone) continue;
    train_slot[code] = static_cast<uint32_t>(train_indices.size());
    tokenize(code);
    std::vector<uint32_t>& indices = train_indices.emplace_back();
    indices.reserve(ranks.size());
    for (uint32_t rank : ranks) indices.push_back(vocabulary.Touch(rank));
  }
  vocab_ = vocabulary.size();
  GlobalTokenKernelStats().grams_interned.fetch_add(vocab_,
                                                    std::memory_order_relaxed);
  total_examples_ = rows.train.size();
  // Each atom's integer counts, its group's at the start.
  for (const AtomRow& row : rows.train) {
    const std::vector<uint32_t>& indices =
        train_indices[train_slot[h.codes()[row.pos]]];
    Group& group = groups_[row.atom];
    if (group.counts.empty()) group.counts.assign(vocab_, 0);
    ++group.example_count;
    group.token_total += indices.size();
    for (uint32_t d : indices) ++group.counts[d];
  }
  // Each distinct test code's dense indices: a train code's own, otherwise
  // its grams' indices, V for a gram outside the vocabulary.
  std::vector<uint32_t> item_of_code;
  item_offsets_.push_back(0);
  for (const AtomRow& row : rows.test) {
    const uint32_t code = h.codes()[row.pos];
    if (code >= item_of_code.size()) item_of_code.resize(code + 1, kNone);
    if (item_of_code[code] == kNone) {
      item_of_code[code] = static_cast<uint32_t>(item_offsets_.size() - 1);
      if (code < train_slot.size() && train_slot[code] != kNone) {
        const std::vector<uint32_t>& indices =
            train_indices[train_slot[code]];
        item_grams_.insert(item_grams_.end(), indices.begin(), indices.end());
      } else {
        tokenize(code);
        for (uint32_t rank : ranks) {
          item_grams_.push_back(vocabulary.Find(rank));
        }
      }
      item_offsets_.push_back(static_cast<uint32_t>(item_grams_.size()));
    }
    AddTestRow(item_of_code[code], row);
  }
  FinishTestRows();
  for (Group& group : groups_) {
    if (group.example_count > 0) ComputeColumn(&group);
  }
  Tabulate();
}

void NaiveBayesCellModel::ComputeColumn(Group* group) const {
  const double denom = NaiveBayesTerms::Denominator(
      static_cast<double>(group->token_total), vocab_);
  // A term depends only on the count, and most grams count once or a few
  // times, so each small count's log is taken once per column.
  constexpr uint32_t kMemoCounts = 64;
  double memo[kMemoCounts];
  memo[0] = NaiveBayesTerms::LogTerm(0.0, denom);
  uint32_t memo_size = 1;
  group->log_column.resize(vocab_ + 1);
  for (size_t d = 0; d < vocab_; ++d) {
    const uint32_t count = group->counts[d];
    if (count >= kMemoCounts) {
      group->log_column[d] = NaiveBayesTerms::LogTerm(count, denom);
      continue;
    }
    for (; memo_size <= count; ++memo_size) {
      memo[memo_size] = NaiveBayesTerms::LogTerm(memo_size, denom);
    }
    group->log_column[d] = memo[count];
  }
  group->log_column[vocab_] = memo[0];
}

void NaiveBayesCellModel::Tabulate() {
  size_t num_columns = 0;
  for (Group& group : groups_) {
    group.column = group.example_count > 0 ? num_columns++ : kNoColumn;
  }
  log_priors_.resize(num_columns);
  log_prob_.resize((vocab_ + 1) * num_columns);
  for (const Group& group : groups_) {
    if (group.column == kNoColumn) continue;
    log_priors_[group.column] = NaiveBayesTerms::LogPrior(
        group.example_count, total_examples_, num_columns);
    for (size_t d = 0; d <= vocab_; ++d) {
      log_prob_[d * num_columns + group.column] = group.log_column[d];
    }
  }
}

void NaiveBayesCellModel::Merge(size_t a, size_t b) {
  CSM_CHECK(a < b && b < groups_.size());
  Group& into = groups_[a];
  Group& from = groups_[b];
  if (from.example_count == 0) {
    // Group b has no column, so no column, count or prior moves.
    groups_.erase(groups_.begin() + static_cast<ptrdiff_t>(b));
    return;
  }
  if (into.counts.empty()) {
    into.counts = std::move(from.counts);
  } else {
    for (size_t d = 0; d < vocab_; ++d) into.counts[d] += from.counts[d];
  }
  into.example_count += from.example_count;
  into.token_total += from.token_total;
  ComputeColumn(&into);
  groups_.erase(groups_.begin() + static_cast<ptrdiff_t>(b));
  Tabulate();
}

void NaiveBayesCellModel::SumItem(uint32_t item,
                                  std::vector<double>* sums) const {
  const size_t num_columns = log_priors_.size();
  sums->assign(log_priors_.begin(), log_priors_.end());
  double* out = sums->data();
  for (uint32_t k = item_offsets_[item]; k < item_offsets_[item + 1]; ++k) {
    const double* row = log_prob_.data() + size_t{item_grams_[k]} * num_columns;
    for (size_t c = 0; c < num_columns; ++c) out[c] += row[c];
  }
}

double NaiveBayesCellModel::Score(uint32_t item, size_t group) const {
  if (groups_[group].column == kNoColumn) {
    return -std::numeric_limits<double>::infinity();
  }
  std::vector<double> sums;
  SumItem(item, &sums);
  return sums[groups_[group].column];
}

void NaiveBayesCellModel::PredictAll(const std::vector<size_t>& label_order,
                                     std::vector<LabelId>* predicted) const {
  std::vector<double>& sums = LocalScratch().sums;
  predicted->resize(num_items());
  for (uint32_t item = 0; item < num_items(); ++item) {
    SumItem(item, &sums);
    LabelId best = kNoLabel;
    double best_score = -std::numeric_limits<double>::infinity();
    size_t best_frequency = 0;
    for (LabelId label = 0; label < label_order.size(); ++label) {
      const Group& group = groups_[label_order[label]];
      if (group.column == kNoColumn) continue;
      if (BeatsBest(sums[group.column], group.example_count, best_score,
                    best_frequency)) {
        best = label;
        best_score = sums[group.column];
        best_frequency = group.example_count;
      }
    }
    (*predicted)[item] = best;
  }
}

}  // namespace csm
