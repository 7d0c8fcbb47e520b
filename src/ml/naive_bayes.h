// Multinomial Naive Bayes over 3-gram tokens (Section 3.2.3: "If h is a
// text attribute, a standard Naive Bayesian classifier is used, with the
// values tokenized into 3-grams").
//
// Internally the classifier runs on the interned token kernel (text/gram.h)
// and one dense vocabulary: every distinct training gram gets a dense index
// in first-seen order, and each label counts its grams in a vector indexed
// by it.  The first classification after training finalizes the counts into
// one gram-major table of log-probabilities, log_prob[d * L + l] for dense
// index d and label l, plus a row V (the vocabulary size) of each label's
// unseen-gram term.  Scoring a text is then one vocabulary lookup per gram
// occurrence and one contiguous row of L adds into L running sums, which
// start at the labels' log priors.  Scores are bit-identical to the
// original map-of-strings implementation: every log term is the same
// std::log((count + alpha) / denom) double, and each label's sum still adds
// its terms in per-occurrence order.
//
// Cells are read straight off dictionary-encoded string columns, and both
// the tokenization of a training cell and the label of a classified cell
// are memoized per (dictionary address, code), so a repeated value pays
// for tokenization and the log-sum once.  A column the classifier has read
// must therefore outlive it (the ValueClassifier contract).
//
// Thread safety: training is single-writer (no concurrent reads), after
// which any number of threads may classify concurrently — the lazy finalize
// and the classification memo are mutex-guarded and the scoring sums are
// thread-local, which is what lets TgtClassInfer share one trained tagger
// across all grid-cell workers.

#ifndef CSM_ML_NAIVE_BAYES_H_
#define CSM_ML_NAIVE_BAYES_H_

#include <cmath>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "ml/classifier.h"
#include "text/gram.h"

namespace csm {

/// Naive Bayes's arithmetic, one copy of each expression for
/// NaiveBayesClassifier and NaiveBayesCellModel, so both give the same
/// doubles from the same counts.
struct NaiveBayesTerms {
  /// Gram length (the paper's 3-grams) and Laplace smoothing alpha.
  static constexpr size_t kGramQ = 3;
  static constexpr double kSmoothing = 1.0;

  /// A label's log prior: its example count among `total_examples`, over
  /// `num_labels` trained labels.
  static double LogPrior(size_t example_count, size_t total_examples,
                         size_t num_labels) {
    return std::log((static_cast<double>(example_count) + kSmoothing) /
                    (static_cast<double>(total_examples) +
                     kSmoothing * static_cast<double>(num_labels)));
  }

  /// A label's smoothed gram denominator over a vocabulary of `vocab` grams
  /// (plus one slot for every gram outside it).
  static double Denominator(double token_total, size_t vocab) {
    return token_total + kSmoothing * (static_cast<double>(vocab) + 1.0);
  }

  /// The log probability of a gram the label counted `count` times; count 0
  /// gives the label's unseen-gram term.
  static double LogTerm(double count, double denominator) {
    return std::log((count + kSmoothing) / denominator);
  }
};

/// Multinomial NB with Laplace smoothing over padded 3-grams of the cell
/// text.  Reads kString columns and all-NULL kNull columns; CHECK-fails on
/// any other column type.
class NaiveBayesClassifier : public ValueClassifier {
 public:
  static constexpr size_t kGramQ = NaiveBayesTerms::kGramQ;
  static constexpr double kSmoothing = NaiveBayesTerms::kSmoothing;

  NaiveBayesClassifier() = default;

  /// Movable (single-threaded by contract: no concurrent access to either
  /// side during the move); the mutexes of the destination start fresh.
  NaiveBayesClassifier(NaiveBayesClassifier&& other) noexcept;
  NaiveBayesClassifier& operator=(NaiveBayesClassifier&& other) noexcept;

  void Train(const Column& column, size_t row, LabelId label) override;
  LabelId Classify(const Column& column, size_t row) const override;

  /// Log posterior (up to the shared evidence term) of `label` for the
  /// cell; -inf for labels never seen.  A NULL cell has no grams and scores
  /// the label's log prior.  Exposed for tests and the differential fuzzer.
  double LogScore(const Column& column, size_t row, LabelId label) const;

 private:
  struct LabelStats {
    size_t example_count = 0;
    double token_total = 0.0;
    /// Occurrences per dense gram index; indices past the end count zero.
    std::vector<double> counts;
  };

  /// The finalized scoring model over the trained labels, in id order.
  struct Model {
    std::vector<LabelId> labels;
    std::vector<size_t> example_counts;
    std::vector<double> log_priors;
    /// (V + 1) x L, gram-major: log_prob[d * L + l].  Row V holds each
    /// label's log((0 + alpha) / denom), the term of a gram it never saw.
    std::vector<double> log_prob;
  };

  /// Counts one example of `label` over dense gram indices.
  void TrainIndices(const std::vector<uint32_t>& indices, LabelId label);

  /// Builds model_ on first use after training; thread-safe.
  const Model& Finalized() const;

  /// Leaves every label's log score of `grams` in `*sums`, in model order:
  /// the shared pass of ClassifyTokens and LogScore.
  void ScoreAll(const Model& model, const std::vector<GramId>& grams,
                std::vector<double>* sums) const;

  /// Classify over pre-tokenized input (the shared tie-break loop).
  LabelId ClassifyTokens(const std::vector<GramId>& grams) const;

  size_t total_examples_ = 0;
  /// Indexed by label id; a label with example_count 0 was never trained.
  std::vector<LabelStats> labels_;
  /// Gram -> dense index, assigned in first-seen training order; its size
  /// is the vocabulary size V.
  std::unordered_map<GramId, uint32_t> gram_index_;

  /// Training token memo: (dictionary, code) -> dense gram indices.
  /// Written during single-writer training only.
  std::unordered_map<const StringDictionary*,
                     std::unordered_map<uint32_t, std::vector<uint32_t>>>
      train_token_memo_;

  // Lazily finalized model + classification memo; see class comment.
  mutable std::mutex model_mu_;
  mutable bool finalized_ = false;  // guarded by model_mu_
  mutable Model model_;
  mutable std::mutex memo_mu_;
  mutable std::unordered_map<const StringDictionary*,
                             std::unordered_map<uint32_t, LabelId>>
      classify_memo_;  // guarded by memo_mu_
};

/// NaiveBayesClassifier fitted once to a grid cell (CellModel).  Each
/// distinct train code is tokenized once into one dense vocabulary of V
/// grams (the train rows' grams); a group keeps integer sufficient
/// statistics — example count, token total and a count per gram — so a
/// merge adds two groups' counts exactly and equals a retrain.  Each
/// distinct test code is tokenized once into dense indices (V for a gram
/// outside the vocabulary).  A group also keeps its log-probability
/// column, which only its own counts and V decide, so a merge recomputes
/// the merged group's column alone; the gram-major table over the trained
/// groups (NaiveBayesClassifier's layout) and every prior, whose
/// denominator holds the trained-group count, are rebuilt from the
/// columns.  Reads kString columns.
class NaiveBayesCellModel : public CellModel {
 public:
  NaiveBayesCellModel(const Column& h, const CellRows& rows, size_t num_atoms);

  double Score(uint32_t item, size_t group) const override;
  void PredictAll(const std::vector<size_t>& label_order,
                  std::vector<LabelId>* predicted) const override;
  void Merge(size_t a, size_t b) override;

 private:
  static constexpr size_t kNoColumn = static_cast<size_t>(-1);

  struct Group {
    size_t example_count = 0;
    uint64_t token_total = 0;
    /// Occurrences by dense gram index; empty for a group without examples.
    std::vector<uint32_t> counts;
    /// Log probability by dense gram index, then the unseen-gram term;
    /// empty for a group without examples.
    std::vector<double> log_column;
    /// Column in the log-probability table; kNoColumn when untrained.
    size_t column = kNoColumn;
  };

  /// Recomputes `group`'s log column from its counts.
  void ComputeColumn(Group* group) const;

  /// Numbers the trained groups' columns and rebuilds the table and every
  /// log prior from them.
  void Tabulate();

  /// Every trained group's score of `item` by column, into `sums`.
  void SumItem(uint32_t item, std::vector<double>* sums) const;

  size_t vocab_ = 0;
  size_t total_examples_ = 0;
  std::vector<Group> groups_;
  /// Concatenated dense gram indices of every item; item i's are
  /// [item_offsets_[i], item_offsets_[i + 1]).
  std::vector<uint32_t> item_grams_;
  std::vector<uint32_t> item_offsets_;
  /// By column: log priors, and the (V + 1) x L gram-major table.
  std::vector<double> log_priors_;
  std::vector<double> log_prob_;
};

}  // namespace csm

#endif  // CSM_ML_NAIVE_BAYES_H_
