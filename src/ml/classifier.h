// Single-label classifier interface used by ClusteredViewGen (Fig. 6).
//
// A classifier maps one cell of the evidence attribute h — a row of a
// column segment — to a label.  Labels are dense ids the caller numbers:
// for SrcClassInfer they are the groups of l's values (ClusteredViewGen
// numbers them in group order), for TgtClassInfer's per-type target
// classifiers the target columns ranked by their "table.attr" names.

#ifndef CSM_ML_CLASSIFIER_H_
#define CSM_ML_CLASSIFIER_H_

#include <cmath>
#include <cstdint>
#include <limits>

#include "relational/column.h"

namespace csm {

/// A classifier label: a dense id numbered from 0 by the caller.  Ids carry
/// the caller's label order, which decides exact ties (see Classify).
using LabelId = uint32_t;

/// "No label": what Classify returns for a missing cell or an untrained
/// classifier.  Never a trained label.
inline constexpr LabelId kNoLabel = std::numeric_limits<LabelId>::max();

/// True when a classifier ignores the cell: NULL, or a non-finite real
/// (NaN, +-inf), which would poison a label's running mean and variance.
/// Train skips such a cell, Classify returns kNoLabel for it, and
/// ClusteredViewGen neither trains nor tests on its row.
inline bool IsMissingCell(const Column& column, size_t row) {
  return column.IsNull(row) || (column.type() == ValueType::kReal &&
                                !std::isfinite(column.reals()[row]));
}

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

}  // namespace csm

#endif  // CSM_ML_CLASSIFIER_H_
