// The classifiers ClusteredViewGen and TgtClassInfer ran before per-cell
// models and up-front tagging (ml/classifier.h, core/tgt_class_infer.h),
// kept as references only: the merge loop's retrained classifiers
// (check/reference.h), FuzzEarlyDisjunctsEquivalence's tag oracle and
// FuzzTokenKernelEquivalence's Naive Bayes check diff the production
// models against them.  A ValueClassifier is trained and queried one cell
// at a time; NaiveBayesClassifier memoizes tokens and labels per
// (dictionary, code) behind two mutexes, so one trained tagger can be
// shared by concurrent readers.  Nothing in the product links them.

#ifndef CSM_CHECK_REFERENCE_CLASSIFIER_H_
#define CSM_CHECK_REFERENCE_CLASSIFIER_H_

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "ml/classifier.h"
#include "ml/gaussian_classifier.h"
#include "ml/naive_bayes.h"
#include "relational/table.h"
#include "stats/descriptive.h"
#include "text/gram.h"

namespace csm::check {

/// Every example is a cell (`column`, `row`).  A classifier may key
/// per-distinct-value memos by the address of a string column's dictionary
/// (see NaiveBayesClassifier), so every column it reads must outlive it and
/// stay unmodified while the classifier is in use.  A classifier may hold
/// state for every id below the largest label it has trained, so label ids
/// should be dense.  Implementations CHECK that the column type is one they
/// read.
class ValueClassifier {
 public:
  virtual ~ValueClassifier() = default;

  /// Adds one training example; `label` is not kNoLabel.  Missing cells
  /// (IsMissingCell) are ignored.
  virtual void Train(const Column& column, size_t row, LabelId label) = 0;

  /// Classifies the cell.  Returns kNoLabel for a missing cell or when the
  /// classifier has seen no training data.  Exact score ties go to the
  /// more frequent label, then to the lower id (the Gaussian classifier,
  /// whose score already holds each label's prior, goes straight to the
  /// lower id).
  virtual LabelId Classify(const Column& column, size_t row) const = 0;
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

/// Models each label's numeric inputs as a Gaussian and classifies by
/// maximum posterior (Gaussian likelihood x label prior).  Reads kInt
/// columns (ints widen to double), kReal columns and all-NULL kNull
/// columns; CHECK-fails on any other column type.  A NaN or +-inf cell is
/// missing, like NULL: training skips it, so one such cell cannot turn a
/// label's mean and deviation into NaN and its score into a NaN that never
/// wins.  Exact ties go to the lower id; a cell on which every label scores
/// -inf or NaN classifies as kNoLabel.
class GaussianClassifier : public ValueClassifier {
 public:
  static constexpr double kMinStdDev = GaussianLabel::kMinStdDev;

  void Train(const Column& column, size_t row, LabelId label) override;
  LabelId Classify(const Column& column, size_t row) const override;

  /// Log posterior (up to the evidence term) of `label` for numeric `x`;
  /// -inf for labels never seen.
  double LogScore(double x, LabelId label) const;

 private:
  size_t total_examples_ = 0;
  /// Indexed by label id; an empty entry is a label never trained.
  std::vector<DescriptiveStats> labels_;
};

/// CreateTargetClassifier: trains the per-type target classifier C_D over
/// the sample of the target database: every non-missing value of every
/// attribute of type `type` becomes a training example labeled with its
/// column.  Label ids rank the columns by their "table.attr" names; columns
/// whose names coincide keep distinct ids, in table and attribute order.
/// Returns nullptr when the target has no attribute of that type.
std::unique_ptr<ValueClassifier> ReferenceTargetClassifier(
    ValueType type, const Database& target_sample);

}  // namespace csm::check

#endif  // CSM_CHECK_REFERENCE_CLASSIFIER_H_
