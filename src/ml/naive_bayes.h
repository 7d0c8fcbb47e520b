// Multinomial Naive Bayes over 3-gram tokens (Section 3.2.3: "If h is a
// text attribute, a standard Naive Bayesian classifier is used, with the
// values tokenized into 3-grams").
//
// Internally the classifier runs on the interned token kernel (text/gram.h):
// grams are packed uint32 ids, per-label counts live in hash maps during
// training, and the first classification finalizes them into contiguous
// sorted (id, log-probability) arrays with precomputed log-priors and
// smoothing denominators.  Scores are bit-identical to the original
// map-of-strings implementation: every log term is the same
// std::log((count + alpha) / denom) double, summed in the same
// per-occurrence order.
//
// Cells are read straight off dictionary-encoded string columns, and both
// the tokenization of a training cell and the label of a classified cell
// are memoized per (dictionary address, code), so a repeated value pays
// for tokenization and the log-sum once.  A column the classifier has read
// must therefore outlive it (the ValueClassifier contract).
//
// Thread safety: training is single-writer (no concurrent reads), after
// which any number of threads may classify concurrently — the lazy finalize
// and the classification memo are mutex-guarded, which is what lets
// TgtClassInfer share one trained tagger across all grid-cell workers.

#ifndef CSM_ML_NAIVE_BAYES_H_
#define CSM_ML_NAIVE_BAYES_H_

#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ml/classifier.h"
#include "text/gram.h"

namespace csm {

/// Multinomial NB with Laplace smoothing over padded 3-grams of the cell
/// text.  Reads kString columns and all-NULL kNull columns; CHECK-fails on
/// any other column type.
class NaiveBayesClassifier : public ValueClassifier {
 public:
  /// Gram length (the paper's 3-grams) and Laplace smoothing alpha.
  static constexpr size_t kGramQ = 3;
  static constexpr double kSmoothing = 1.0;

  NaiveBayesClassifier() = default;

  /// Movable (single-threaded by contract: no concurrent access to either
  /// side during the move); the mutexes of the destination start fresh.
  NaiveBayesClassifier(NaiveBayesClassifier&& other) noexcept;
  NaiveBayesClassifier& operator=(NaiveBayesClassifier&& other) noexcept;

  void Train(const Column& column, size_t row,
             const std::string& label) override;
  std::string Classify(const Column& column, size_t row) const override;
  std::vector<std::string> Labels() const override;
  size_t TrainingSize() const override { return total_examples_; }

  /// Log posterior (up to the shared evidence term) of `label` for the
  /// cell; -inf for labels never seen.  A NULL cell has no grams and scores
  /// the label's log prior.  Exposed for tests and the differential fuzzer.
  double LogScore(const Column& column, size_t row,
                  const std::string& label) const;

 private:
  struct LabelStats {
    size_t example_count = 0;
    double token_total = 0.0;
    std::unordered_map<GramId, double> token_counts;
  };

  /// Finalized per-label scoring model, in labels_ (lexicographic) order.
  struct LabelModel {
    const std::string* label = nullptr;
    size_t example_count = 0;
    double log_prior = 0.0;
    double log_unseen = 0.0;                // log((0 + alpha) / denom)
    std::vector<GramId> gram_ids;           // sorted
    std::vector<double> gram_log_prob;      // parallel to gram_ids
  };

  void TrainTokens(const std::vector<GramId>& grams, const std::string& label);

  /// Builds models_ on first use after training; thread-safe.
  const std::vector<LabelModel>& Finalized() const;

  double ScoreTokens(const LabelModel& model,
                     const std::vector<GramId>& grams) const;

  /// Classify over pre-tokenized input (the shared tie-break loop).
  std::string ClassifyTokens(const std::vector<GramId>& grams) const;

  size_t total_examples_ = 0;
  std::map<std::string, LabelStats> labels_;
  std::unordered_set<GramId> vocabulary_;

  /// Training token memo: (dictionary, code) -> gram ids.  Written during
  /// single-writer training only.
  std::unordered_map<const StringDictionary*,
                     std::unordered_map<uint32_t, std::vector<GramId>>>
      train_token_memo_;

  // Lazily finalized model + classification memo; see class comment.
  mutable std::mutex model_mu_;
  mutable bool finalized_ = false;  // guarded by model_mu_
  mutable std::vector<LabelModel> models_;
  mutable std::mutex memo_mu_;
  mutable std::unordered_map<const StringDictionary*,
                             std::unordered_map<uint32_t, std::string>>
      classify_memo_;  // guarded by memo_mu_
};

}  // namespace csm

#endif  // CSM_ML_NAIVE_BAYES_H_
