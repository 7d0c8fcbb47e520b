// Multinomial Naive Bayes over 3-gram tokens (Section 3.2.3: "If h is a
// text attribute, a standard Naive Bayesian classifier is used, with the
// values tokenized into 3-grams").
//
// The model runs on the interned token kernel (text/gram.h) and one dense
// vocabulary: every distinct training gram gets a dense index in first-seen
// order, and each label counts its grams in a vector indexed by it.  The
// counts become one gram-major table of log-probabilities,
// log_prob[d * L + l] for dense index d and label l, plus a row V (the
// vocabulary size) of each label's unseen-gram term.  Scoring a text is
// then one contiguous row of L adds per gram occurrence into L running
// sums, which start at the labels' log priors.  Scores are bit-identical
// to the original map-of-strings implementation (the reference in
// check/fuzz.cc): every log term is the same std::log((count + alpha) /
// denom) double, and each label's sum still adds its terms in
// per-occurrence order.
//
// Cells are read straight off dictionary-encoded string columns, and each
// distinct code is tokenized once per model.

#ifndef CSM_ML_NAIVE_BAYES_H_
#define CSM_ML_NAIVE_BAYES_H_

#include <cmath>
#include <vector>

#include "ml/classifier.h"
#include "text/gram.h"

namespace csm {

/// Naive Bayes's arithmetic, one copy of each expression for
/// NaiveBayesCellModel and the retrained reference classifier
/// (check/reference_classifier.h), so both give the same doubles from the
/// same counts.
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

/// Multinomial Naive Bayes with Laplace smoothing over padded 3-grams of
/// the cell text, fitted once (CellModel).  Each distinct train code is
/// tokenized once into one dense vocabulary of V grams (the train cells'
/// grams); a group keeps integer sufficient statistics — example count,
/// token total and a count per gram — so a merge adds two groups' counts
/// exactly and equals a retrain.  Each distinct test code is tokenized once
/// into dense indices (V for a gram outside the vocabulary).  A group also
/// keeps its log-probability column, which only its own counts and V
/// decide, so a merge recomputes the merged group's column alone; the
/// gram-major table over the trained groups and every prior, whose
/// denominator holds the trained-group count, are rebuilt from the columns.
/// Exact score ties go to the more frequent group, then the lower label
/// (BeatsBest).  Reads kString and all-NULL kNull columns.
class NaiveBayesCellModel : public CellModel {
 public:
  /// A grid cell's model over evidence column `h`.
  NaiveBayesCellModel(const Column& h, const CellRows& rows, size_t num_atoms);

  /// A tagger's model (TgtClassInfer): group g trains on every non-NULL
  /// cell of `labels[g]` in row order, and the test cells are each
  /// `evidence[e]`'s non-NULL cells at `positions`, one item per distinct
  /// code of a column.  `(*items)[e][k]` receives the item of `evidence[e]`
  /// at `positions[k]`, kNoItem at a NULL cell.  The items are numbered
  /// (num_items, item_row) but record no test counts.
  NaiveBayesCellModel(const std::vector<const Column*>& labels,
                      const std::vector<const Column*>& evidence,
                      const PosList& positions,
                      std::vector<std::vector<uint32_t>>* items);

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

  /// Sets the vocabulary size V once every train code is tokenized.
  void SetVocabulary(size_t vocab);

  /// Counts one train example of group `group_index` over dense indices.
  void AddExample(const std::vector<uint32_t>& indices, size_t group_index);

  /// Computes every trained group's log column, then the table.
  void Fit();

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
