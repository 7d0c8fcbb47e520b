// Single-label classifier interface used by ClusteredViewGen (Fig. 6).
//
// A classifier maps one cell of the evidence attribute h — a row of a
// column segment — to a label string.  For SrcClassInfer labels are the
// categorical values of l; for TgtClassInfer's per-type target classifiers
// labels are target column names ("Book.Title").

#ifndef CSM_ML_CLASSIFIER_H_
#define CSM_ML_CLASSIFIER_H_

#include <cmath>
#include <string>
#include <vector>

#include "relational/column.h"

namespace csm {

/// True when a classifier ignores the cell: NULL, or a non-finite real
/// (NaN, +-inf), which would poison a label's running mean and variance.
/// Train skips such a cell, Classify returns "" for it, and ClusteredViewGen
/// neither trains nor tests on its row.
inline bool IsMissingCell(const Column& column, size_t row) {
  return column.IsNull(row) || (column.type() == ValueType::kReal &&
                                !std::isfinite(column.reals()[row]));
}

/// Every example is a cell (`column`, `row`).  A classifier may key
/// per-distinct-value memos by the address of a string column's dictionary
/// (see NaiveBayesClassifier), so every column it reads must outlive it and
/// stay unmodified while the classifier is in use.  Implementations CHECK
/// that the column type is one they read.
class ValueClassifier {
 public:
  virtual ~ValueClassifier() = default;

  /// Adds one training example.  Missing cells (IsMissingCell) are ignored.
  virtual void Train(const Column& column, size_t row,
                     const std::string& label) = 0;

  /// Classifies the cell.  Returns the empty string for a missing cell or
  /// when the classifier has seen no training data.
  virtual std::string Classify(const Column& column, size_t row) const = 0;

  /// Distinct labels seen during training, sorted.
  virtual std::vector<std::string> Labels() const = 0;

  /// Total number of training examples absorbed.
  virtual size_t TrainingSize() const = 0;
};

}  // namespace csm

#endif  // CSM_ML_CLASSIFIER_H_
