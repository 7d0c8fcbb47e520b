// In-memory table instances and the value-bag accessor v(R, a) used
// throughout the matching algorithms.
//
// Storage is columnar: one typed Column segment per attribute, with
// dictionary-encoded strings (see relational/column.h).  Every read goes
// through the segments — column() for scans, ValueAt for one cell,
// ValueBag / ValueCounts for a whole attribute — and row() boxes one row
// by value for the few row-at-a-time consumers.

#ifndef CSM_RELATIONAL_TABLE_H_
#define CSM_RELATIONAL_TABLE_H_

#include <map>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "relational/column.h"
#include "relational/schema.h"
#include "relational/value.h"

namespace csm {

/// One tuple: values aligned to the table schema's attribute order.
using Row = std::vector<Value>;

/// A table instance: schema plus columnar segments.  Rows are CHECK-verified
/// for arity; type conformance is verified for non-null cells.
class Table {
 public:
  Table() = default;
  explicit Table(TableSchema schema);

  Table(const Table&) = default;
  Table& operator=(const Table&) = default;
  /// Moves leave `other` with zero rows, not a row count over moved-out
  /// segments.
  Table(Table&& other) noexcept;
  Table& operator=(Table&& other) noexcept;

  const TableSchema& schema() const { return schema_; }
  const std::string& name() const { return schema_.name(); }
  size_t num_rows() const { return num_rows_; }
  bool empty() const { return num_rows_ == 0; }

  /// Appends a row; CHECK-fails on arity or type mismatch.
  void AddRow(Row row);

  /// Parses `fields` (one cell of raw text per attribute) directly into the
  /// column segments with Value::Parse semantics, skipping per-cell Value
  /// boxing; a string cell is copied only when it enters a dictionary.  On a
  /// parse error no row is appended (partial cells are rolled back) and the
  /// error is returned.
  Status AddRowFromText(const std::vector<std::string_view>& fields);

  /// Reserves capacity for `n` rows across all column segments.
  void Reserve(size_t n);

  /// Appends every row of `other` (attribute names and types must match;
  /// CHECK-enforced) — the ordered merge step of parallel CSV ingest.
  /// String cells re-encode into this table's dictionaries in row order
  /// (Column::AppendFrom), so appending freshly parsed chunk tables in
  /// chunk order is bit-identical to one serial parse of the whole file.
  void AppendRowsFrom(const Table& other);

  /// Row `index` boxed by value from the column segments; CHECK-fails when
  /// out of range.
  Row row(size_t index) const;

  /// The cell at (row, attribute index), boxed by value from the column
  /// segment.
  Value ValueAt(size_t row_index, size_t col_index) const;

  /// The cell at (row, attribute name); CHECK-fails for unknown names.
  Value ValueAt(size_t row_index, std::string_view attribute) const;

  /// Column segment of attribute `col_index`.
  const Column& column(size_t col_index) const;

  /// v(R, a): the bag of values of attribute `a` across all rows
  /// ("select a from R"), in row order.  NULLs are included.
  std::vector<Value> ValueBag(std::string_view attribute) const;
  std::vector<Value> ValueBag(size_t col_index) const;

  /// Distinct non-null values of `attribute` with their multiplicities,
  /// keyed in Value order (deterministic iteration).
  std::map<Value, size_t> ValueCounts(std::string_view attribute) const;

  /// Returns a table with the same schema containing the rows at `indices`.
  Table SelectRows(const std::vector<size_t>& indices) const;

  /// PosList overload: columnar gather, sharing string dictionaries with
  /// this table (no string copies).
  Table SelectRows(const PosList& positions) const;

  /// Returns a copy with a different table name (schema otherwise equal).
  Table Renamed(std::string new_name) const;

  /// Assembles a table from pre-built column segments (the materialization
  /// path of TableView).  CHECK-fails unless every column matches the
  /// schema's attribute types and has exactly `num_rows` cells.
  static Table FromColumns(TableSchema schema, std::vector<Column> columns,
                           size_t num_rows);

  /// Multi-line textual rendering (for examples and debugging); prints at
  /// most `max_rows` rows.
  std::string ToString(size_t max_rows = 20) const;

 private:
  TableSchema schema_;
  std::vector<Column> columns_;  // one per schema attribute
  size_t num_rows_ = 0;
};

/// A named collection of table instances conforming to a Schema.
class Database {
 public:
  Database() = default;
  explicit Database(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  const std::vector<Table>& tables() const { return tables_; }
  std::vector<Table>& mutable_tables() { return tables_; }

  /// Adds a table instance; CHECK-fails on duplicate table names.
  void AddTable(Table table);

  const Table* FindTable(std::string_view name) const;
  /// CHECK-fails if absent.
  const Table& GetTable(std::string_view name) const;
  Table* FindMutableTable(std::string_view name);
  bool HasTable(std::string_view name) const {
    return FindTable(name) != nullptr;
  }

  /// The Schema (catalog view) over all contained tables.
  Schema GetSchema() const;

 private:
  std::string name_;
  std::vector<Table> tables_;
};

}  // namespace csm

#endif  // CSM_RELATIONAL_TABLE_H_
