// Zero-copy reference views over a base Table.
//
// A TableView is (base table, PosList, optional projection): the rows of the
// base at the listed positions, optionally restricted/reordered to a subset
// of columns.  It is the runtime representation of a materialized View —
// candidate contextual conditions evaluate to a TableView and the inference,
// scoring and mapping layers read through it without copying a single cell.
// The identity view (all rows, all columns) carries no position list at all,
// so wrapping a Table is free.
//
// A TableView never owns its base: the base Table must outlive the view, and
// appending rows to the base invalidates any view positions taken before the
// append (the usual reference-segment rule; see DESIGN.md "Columnar storage
// & zero-copy views").

#ifndef CSM_RELATIONAL_TABLE_VIEW_H_
#define CSM_RELATIONAL_TABLE_VIEW_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "relational/column.h"
#include "relational/table.h"

namespace csm {

class TableView {
 public:
  /// An invalid view (no base); valid() is false and row accessors
  /// CHECK-fail.
  TableView() = default;

  /// Identity view: all rows and columns of `base`, same name.  Implicit on
  /// purpose so call sites holding a Table can pass it where a TableView is
  /// expected.  `base` must outlive the view.
  TableView(const Table& base);  // NOLINT(google-explicit-constructor)

  /// Select-only view: the rows of `base` at `positions`, in order.
  TableView(const Table& base, PosList positions);

  /// Select-project view: `column_map[i]` is the base column index backing
  /// view column i; `schema` names and types the view columns.
  TableView(const Table& base, PosList positions, TableSchema schema,
            std::vector<size_t> column_map);

  bool valid() const { return base_ != nullptr; }
  const Table& base() const;

  /// The view's schema: the base schema unless projected or renamed.
  const TableSchema& schema() const;
  const std::string& name() const { return schema().name(); }

  size_t num_rows() const { return identity_ ? BaseRows() : positions_.size(); }
  bool empty() const { return num_rows() == 0; }
  size_t num_columns() const { return schema().num_attributes(); }

  /// True when the view covers all base rows in order with no PosList.
  bool is_identity() const { return identity_; }

  /// Base-table row position of view row `i`.
  RowId position(size_t i) const;

  /// Positions of all view rows (identity views materialize an iota list).
  PosList Positions() const;

  /// Base column index backing view column `view_col`.
  size_t base_column_index(size_t view_col) const;

  /// Column segment backing view column `view_col` (cells must be read
  /// through position()).
  const Column& column(size_t view_col) const;

  /// The view's cells of column `view_col` as a standalone segment: the
  /// base column for an identity view, else its Gather at the view's
  /// positions (string dictionary shared, no string copies).
  Column GatherColumn(size_t view_col) const;

  /// The cell at (view row, view column), boxed by value.
  Value ValueAt(size_t row_index, size_t col_index) const;

  /// v(V, a) in view-row order, NULLs included — same contract as
  /// Table::ValueBag.
  std::vector<Value> ValueBag(std::string_view attribute) const;
  std::vector<Value> ValueBag(size_t col_index) const;

  /// Distinct non-null values with multiplicities, in Value order — same
  /// contract as Table::ValueCounts.
  std::map<Value, size_t> ValueCounts(std::string_view attribute) const;

  /// Composes a selection: `local_positions` index *view* rows; the result
  /// is a view over the same base.
  TableView Select(PosList local_positions) const;

  /// The same view under a different relation name.
  TableView Renamed(std::string new_name) const;

  /// Copies the viewed rows into a standalone Table named after the view.
  /// String columns share the base's dictionaries (no string copies).
  Table ToTable() const;

 private:
  size_t BaseRows() const;

  const Table* base_ = nullptr;
  bool identity_ = false;
  PosList positions_;                          // empty when identity_
  std::optional<TableSchema> schema_override_; // projection or rename
  std::vector<size_t> column_map_;             // empty = identity columns
};

}  // namespace csm

#endif  // CSM_RELATIONAL_TABLE_VIEW_H_
