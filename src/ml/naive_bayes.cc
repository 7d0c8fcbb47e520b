#include "ml/naive_bayes.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/logging.h"

namespace csm {
namespace {

constexpr uint32_t kNone = static_cast<uint32_t>(-1);

/// Per-thread scratch (normalized text, gram ranks, per-label score sums),
/// so the per-cell loops allocate nothing.
struct TokenScratch {
  std::string padded;
  std::vector<uint32_t> ranks;
  std::vector<double> sums;
};

TokenScratch& LocalScratch() {
  static thread_local TokenScratch scratch;
  return scratch;
}

void CheckTextColumn(const Column& column) {
  CSM_CHECK(column.type() == ValueType::kString ||
            column.type() == ValueType::kNull)
      << "NaiveBayesCellModel reads string columns, got "
      << ValueTypeToString(column.type());
}

/// Replaces `scratch->ranks` with the dense 3-gram ranks of the code's text
/// (the grams of AppendPackedQGrams, in its order).
void Tokenize(const Column& column, uint32_t code, TokenScratch* scratch) {
  scratch->ranks.clear();
  AppendQGramRanks(column.dictionary().value(code), &scratch->padded,
                   &scratch->ranks);
}

/// The distinct codes of one string column's train cells, each tokenized
/// once into dense indices of `vocabulary`, which numbers the train cells'
/// grams in first-seen order.
class TrainCodes {
 public:
  TrainCodes(const Column& column, GramRankSlots* vocabulary,
             TokenScratch* scratch)
      : column_(&column), vocabulary_(vocabulary), scratch_(scratch) {}

  /// Tokenizes the code of the cell at `pos` the first time it shows up.
  void Add(RowId pos) {
    const uint32_t code = column_->codes()[pos];
    if (code >= slot_.size()) slot_.resize(code + 1, kNone);
    if (slot_[code] != kNone) return;
    slot_[code] = static_cast<uint32_t>(indices_.size());
    Tokenize(*column_, code, scratch_);
    std::vector<uint32_t>& indices = indices_.emplace_back();
    indices.reserve(scratch_->ranks.size());
    for (uint32_t rank : scratch_->ranks) {
      indices.push_back(vocabulary_->Touch(rank));
    }
  }

  /// The dense indices of the added cell at `pos`.
  const std::vector<uint32_t>& At(RowId pos) const {
    return indices_[slot_[column_->codes()[pos]]];
  }

  /// The dense indices of `code`, or null when no added cell holds it.
  const std::vector<uint32_t>* Find(uint32_t code) const {
    return code < slot_.size() && slot_[code] != kNone
               ? &indices_[slot_[code]]
               : nullptr;
  }

 private:
  const Column* column_;
  GramRankSlots* vocabulary_;
  TokenScratch* scratch_;
  std::vector<uint32_t> slot_;  // by code; kNone when not added
  std::vector<std::vector<uint32_t>> indices_;
};

/// One string column's test cells numbered as items, one per distinct code
/// in first-seen order after the `offsets->size() - 1` items before them.
/// An item's dense indices are its code's train indices when `train` (the
/// same column's train codes, or null) holds it, else its grams' slots (V
/// for a gram outside the vocabulary); they are appended to `grams`, and
/// their end to `offsets`.
class ItemCodes {
 public:
  ItemCodes(const Column& column, const TrainCodes* train,
            const GramRankSlots& vocabulary, TokenScratch* scratch,
            std::vector<uint32_t>* grams, std::vector<uint32_t>* offsets)
      : column_(&column),
        train_(train),
        vocabulary_(&vocabulary),
        scratch_(scratch),
        grams_(grams),
        offsets_(offsets) {}

  /// The item of the cell at `pos`.
  uint32_t Of(RowId pos) {
    const uint32_t code = column_->codes()[pos];
    if (code >= item_of_code_.size()) item_of_code_.resize(code + 1, kNone);
    if (item_of_code_[code] == kNone) {
      item_of_code_[code] = static_cast<uint32_t>(offsets_->size() - 1);
      const std::vector<uint32_t>* indices =
          train_ == nullptr ? nullptr : train_->Find(code);
      if (indices != nullptr) {
        grams_->insert(grams_->end(), indices->begin(), indices->end());
      } else {
        Tokenize(*column_, code, scratch_);
        for (uint32_t rank : scratch_->ranks) {
          grams_->push_back(vocabulary_->Find(rank));
        }
      }
      offsets_->push_back(static_cast<uint32_t>(grams_->size()));
    }
    return item_of_code_[code];
  }

 private:
  const Column* column_;
  const TrainCodes* train_;
  const GramRankSlots* vocabulary_;
  TokenScratch* scratch_;
  std::vector<uint32_t>* grams_;
  std::vector<uint32_t>* offsets_;
  std::vector<uint32_t> item_of_code_;  // kNone when not numbered
};

}  // namespace

NaiveBayesCellModel::NaiveBayesCellModel(const Column& h,
                                         const CellRows& rows,
                                         size_t num_atoms)
    : groups_(num_atoms) {
  CheckTextColumn(h);
  TokenScratch& scratch = LocalScratch();
  GramRankSlots vocabulary;
  TrainCodes train(h, &vocabulary, &scratch);
  for (const AtomRow& row : rows.train) train.Add(row.pos);
  SetVocabulary(vocabulary.size());
  total_examples_ = rows.train.size();
  for (const AtomRow& row : rows.train) AddExample(train.At(row.pos), row.atom);
  item_offsets_.push_back(0);
  ItemCodes items(h, &train, vocabulary, &scratch, &item_grams_,
                  &item_offsets_);
  for (const AtomRow& row : rows.test) AddTestRow(items.Of(row.pos), row);
  FinishTestRows();
  Fit();
}

NaiveBayesCellModel::NaiveBayesCellModel(
    const std::vector<const Column*>& labels,
    const std::vector<const Column*>& evidence, const PosList& positions,
    std::vector<std::vector<uint32_t>>* items)
    : groups_(labels.size()) {
  TokenScratch& scratch = LocalScratch();
  GramRankSlots vocabulary;
  std::vector<TrainCodes> train;
  train.reserve(labels.size());
  for (const Column* column : labels) {
    CheckTextColumn(*column);
    TrainCodes& codes = train.emplace_back(*column, &vocabulary, &scratch);
    for (RowId r = 0; r < column->size(); ++r) {
      if (!column->IsNull(r)) codes.Add(r);
    }
  }
  SetVocabulary(vocabulary.size());
  for (size_t g = 0; g < labels.size(); ++g) {
    for (RowId r = 0; r < labels[g]->size(); ++r) {
      if (labels[g]->IsNull(r)) continue;
      AddExample(train[g].At(r), g);
      ++total_examples_;
    }
  }
  item_offsets_.push_back(0);
  items->assign(evidence.size(), {});
  for (size_t e = 0; e < evidence.size(); ++e) {
    const Column& column = *evidence[e];
    CheckTextColumn(column);
    ItemCodes codes(column, nullptr, vocabulary, &scratch, &item_grams_,
                    &item_offsets_);
    std::vector<uint32_t>& out = (*items)[e];
    out.reserve(positions.size());
    for (RowId pos : positions) {
      if (column.IsNull(pos)) {
        out.push_back(kNoItem);
        continue;
      }
      out.push_back(codes.Of(pos));
      AddItem(out.back(), pos);
    }
  }
  Fit();
}

void NaiveBayesCellModel::SetVocabulary(size_t vocab) {
  vocab_ = vocab;
  GlobalTokenKernelStats().grams_interned.fetch_add(vocab_,
                                                    std::memory_order_relaxed);
}

void NaiveBayesCellModel::AddExample(const std::vector<uint32_t>& indices,
                                     size_t group_index) {
  Group& group = groups_[group_index];
  if (group.counts.empty()) group.counts.assign(vocab_, 0);
  ++group.example_count;
  group.token_total += indices.size();
  for (uint32_t d : indices) ++group.counts[d];
}

void NaiveBayesCellModel::Fit() {
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
