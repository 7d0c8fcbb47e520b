// Select-only (and select-project) views over base tables, plus view
// families (Section 3.2.2).
//
// Candidate contextual conditions are represented as views "select * from R
// where c"; the mapping machinery of Section 4 also needs SP views
// "select Y from R where c".  Views are *descriptions* — they are never
// registered anywhere; Materialize() evaluates one against an instance on
// demand (the paper stresses that no views are created in the DBMS during
// search).

#ifndef CSM_RELATIONAL_VIEW_H_
#define CSM_RELATIONAL_VIEW_H_

#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "relational/condition.h"
#include "relational/table.h"
#include "relational/table_view.h"

namespace csm {

/// A select-project view definition over a single base table.
class View {
 public:
  View() = default;

  /// Select-only view: select * from `base_table` where `condition`.
  View(std::string name, std::string base_table, Condition condition)
      : name_(std::move(name)),
        base_table_(std::move(base_table)),
        condition_(std::move(condition)) {}

  /// SP view: select `projection` from `base_table` where `condition`.
  View(std::string name, std::string base_table, Condition condition,
       std::vector<std::string> projection)
      : name_(std::move(name)),
        base_table_(std::move(base_table)),
        condition_(std::move(condition)),
        projection_(std::move(projection)) {}

  const std::string& name() const { return name_; }
  const std::string& base_table() const { return base_table_; }
  const Condition& condition() const { return condition_; }

  /// Empty means "select *".
  const std::vector<std::string>& projection() const { return projection_; }
  bool has_projection() const { return !projection_.empty(); }

  /// The view's schema given its base table's schema.
  TableSchema ViewSchema(const TableSchema& base_schema) const;

  /// Evaluates the view against an instance of its base table (whose name
  /// must match base_table(); CHECK-enforced).
  Table Materialize(const Table& base_instance) const;

  /// Binds the view to an instance without copying: the result is a
  /// TableView (PosList + projection map) over `base_instance`, carrying
  /// the view's schema.  `base_instance` must outlive the returned view.
  TableView Bind(const Table& base_instance) const;

  /// Row positions of `base_instance` satisfying the condition (columnar
  /// scan; ascending).
  PosList Positions(const Table& base_instance) const;

  /// "name := select * from R where c".
  std::string ToString() const;

  friend bool operator==(const View& a, const View& b) {
    return a.name_ == b.name_ && a.base_table_ == b.base_table_ &&
           a.condition_ == b.condition_ && a.projection_ == b.projection_;
  }

 private:
  std::string name_;
  std::string base_table_;
  Condition condition_;
  std::vector<std::string> projection_;
};

/// Identity of the select-only view σ_condition(base_table) (Section 2.2)
/// for dedup, scoring and selection.  Equal exactly when the tables and
/// Conditions are; ordered by table, then clause by clause (attribute name,
/// then values under Value's order).  View names and condition renderings
/// are display strings: distinct conditions can render alike.
struct ViewId {
  std::string base_table;
  Condition condition;

  static ViewId Of(const View& view) {
    return {view.base_table(), view.condition()};
  }

  friend bool operator==(const ViewId&, const ViewId&) = default;
  friend bool operator<(const ViewId& a, const ViewId& b) {
    return std::tie(a.base_table, a.condition) <
           std::tie(b.base_table, b.condition);
  }
};

/// A view family F = (R, l, {V_i}): select-only views over base table R
/// whose conditions partition rows by the categorical attribute l
/// (Section 3.2.2).  With early-disjunct merging a member view's clause may
/// hold several values of l; the family's conditions remain mutually
/// exclusive.
struct ViewFamily {
  std::string base_table;
  std::string label_attribute;  // the categorical attribute l
  std::vector<View> views;

  /// Quality of the family as judged by ClusteredViewGen: the micro-averaged
  /// F1 of the classifier that produced it, and the significance of that
  /// score against the random-label null hypothesis.
  double classifier_f1 = 0.0;
  double significance = 0.0;

  /// The non-categorical attribute h that the family classified well
  /// (diagnostic only).
  std::string evidence_attribute;

  /// Verifies the family invariant: all views select from `base_table` with
  /// 1-conditions on `label_attribute` and pairwise-disjoint value sets.
  bool IsWellFormed() const;

  std::string ToString() const;
};

/// Builds the family of simple-condition views {V_i: l = v_i} for every
/// distinct non-null value v_i of `label_attribute` in `instance`.
/// View names are "<table>[l=v]".
ViewFamily MakeSimpleViewFamily(const Table& instance,
                                std::string_view label_attribute);

}  // namespace csm

#endif  // CSM_RELATIONAL_VIEW_H_
