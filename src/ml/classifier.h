// Classifier building blocks of ClusteredViewGen (Fig. 6).
//
// A CellModel is a classifier fitted once to one (l, h) cell of
// ClusteredViewGen's grid, whose labels are groups of l's values that the
// EarlyDisjuncts loop merges (Section 3.3).  It answers every cycle exactly
// as a classifier retrained on that cycle's grouping would.  The Naive Bayes
// and Gaussian models also fit TgtClassInfer's per-type taggers, whose
// labels are target columns (core/tgt_class_infer.h).

#ifndef CSM_ML_CLASSIFIER_H_
#define CSM_ML_CLASSIFIER_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "relational/column.h"

namespace csm {

/// A classifier label: a dense id numbered from 0 by the caller.  Ids carry
/// the caller's label order, which decides exact ties (see BeatsBest).
using LabelId = uint32_t;

/// "No label": the prediction for a missing cell or of a model without
/// trained labels.  Never a trained label.
inline constexpr LabelId kNoLabel = std::numeric_limits<LabelId>::max();

/// True when a classifier ignores the cell: NULL, or a non-finite real
/// (NaN, +-inf), which would poison a label's running mean and variance.
/// Training skips such a cell, it is tagged kNoLabel, and ClusteredViewGen
/// neither trains nor tests on its row.
inline bool IsMissingCell(const Column& column, size_t row) {
  return column.IsNull(row) || (column.type() == ValueType::kReal &&
                                !std::isfinite(column.reals()[row]));
}

/// The tie rule of Naive Bayes and bestCAT, applied while scanning labels in
/// id order: a label beats the best so far on a higher score, or on an equal
/// score and a higher frequency, so an exact tie goes to the more frequent
/// label and then to the lower id.
inline bool BeatsBest(double score, size_t frequency, double best_score,
                      size_t best_frequency) {
  return score > best_score ||
         (score == best_score && frequency > best_frequency);
}

/// One distinct value of a label attribute (an "atom"), numbered densely by
/// the caller; ClusteredViewGen numbers a label attribute's values in Value
/// order.
using AtomId = uint32_t;

/// A row a grid cell trains or tests on: its position in the evidence
/// column and its atom.
struct AtomRow {
  RowId pos;
  AtomId atom;
};

/// A grid cell's train and test rows, each in view order.  No row's
/// evidence cell is missing (IsMissingCell).
struct CellRows {
  std::vector<AtomRow> train;
  std::vector<AtomRow> test;
};

/// The test rows that hold one distinct test item and whose true atom is
/// `atom`.
struct ItemAtomRows {
  uint32_t item;
  AtomId atom;
  size_t rows;
};

/// "No item": a tagger model's item for a missing evidence cell.
inline constexpr uint32_t kNoItem = static_cast<uint32_t>(-1);

/// A classifier fitted once to one grid cell: evidence column h, read at the
/// cell's fixed train and test rows, and labels that are groups of atoms.
/// It starts with one group per atom (group a is {a}); Merge(a, b) joins
/// group b into group a and erases b, so the groups after b move down one
/// index, as ClusteredViewGen's groups do.  Between merges the caller
/// numbers the groups as labels and asks for predictions, which equal what
/// a classifier trained on every train row under its group's label returns
/// for each test row (the retrained classifiers of
/// check/reference_classifier.h).  Test rows are deduplicated into distinct
/// items (a code, a value or a tag, by model), each scored once per cycle.
/// A model reads `h` until it is destroyed, and is used by one thread.
class CellModel {
 public:
  virtual ~CellModel() = default;

  /// Distinct test items, numbered in first-seen test-row order.
  size_t num_items() const { return item_rows_.size(); }

  /// The position of the first test row holding `item`.
  RowId item_row(uint32_t item) const { return item_rows_[item]; }

  /// The test rows by (item, true atom), ascending, each pair once.
  const std::vector<ItemAtomRows>& test_counts() const { return test_counts_; }

  /// The retrained classifier's score of `group`'s label for `item`: the
  /// Naive Bayes or Gaussian log score (-inf for a group without train
  /// rows), or the bestCAT score.
  virtual double Score(uint32_t item, size_t group) const = 0;

  /// Leaves each item's predicted label in `(*predicted)[item]` (kNoLabel
  /// when the retrained classifier would return it).  `label_order[l]` is
  /// the group whose label is l, for every current group.
  virtual void PredictAll(const std::vector<size_t>& label_order,
                          std::vector<LabelId>* predicted) const = 0;

  /// Joins group `b` into group `a`, a < b, and erases group `b`.
  virtual void Merge(size_t a, size_t b) = 0;

 protected:
  /// Records a test row holding `item`; items are numbered densely in the
  /// order rows first show them.  Call FinishTestRows after the last row.
  void AddTestRow(uint32_t item, const AtomRow& row);
  void FinishTestRows();

  /// Numbers `item` (held at `pos`) as AddTestRow does, without recording
  /// a test row: for tagger models, which read items, not test counts.
  void AddItem(uint32_t item, RowId pos) {
    if (item == item_rows_.size()) item_rows_.push_back(pos);
  }

 private:
  std::vector<RowId> item_rows_;
  std::vector<ItemAtomRows> test_counts_;
};

}  // namespace csm

#endif  // CSM_ML_CLASSIFIER_H_
