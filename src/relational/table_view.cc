#include "relational/table_view.h"

#include <numeric>

#include "common/logging.h"

namespace csm {

TableView::TableView(const Table& base) : base_(&base), identity_(true) {}

TableView::TableView(const Table& base, PosList positions)
    : base_(&base), positions_(std::move(positions)) {}

TableView::TableView(const Table& base, PosList positions, TableSchema schema,
                     std::vector<size_t> column_map)
    : base_(&base),
      positions_(std::move(positions)),
      schema_override_(std::move(schema)),
      column_map_(std::move(column_map)) {
  CSM_CHECK_EQ(schema_override_->num_attributes(), column_map_.size());
}

const Table& TableView::base() const {
  CSM_CHECK(base_ != nullptr) << "invalid TableView";
  return *base_;
}

const TableSchema& TableView::schema() const {
  if (schema_override_) return *schema_override_;
  return base().schema();
}

size_t TableView::BaseRows() const { return base().num_rows(); }

RowId TableView::position(size_t i) const {
  CSM_CHECK_LT(i, num_rows());
  return identity_ ? static_cast<RowId>(i) : positions_[i];
}

PosList TableView::Positions() const {
  if (!identity_) return positions_;
  PosList out(num_rows());
  std::iota(out.begin(), out.end(), RowId{0});
  return out;
}

size_t TableView::base_column_index(size_t view_col) const {
  CSM_CHECK_LT(view_col, num_columns());
  return column_map_.empty() ? view_col : column_map_[view_col];
}

const Column& TableView::column(size_t view_col) const {
  return base().column(base_column_index(view_col));
}

Column TableView::GatherColumn(size_t view_col) const {
  const Column& col = column(view_col);
  return identity_ ? col : col.Gather(positions_);
}

Value TableView::ValueAt(size_t row_index, size_t col_index) const {
  return column(col_index).GetValue(position(row_index));
}

std::vector<Value> TableView::ValueBag(std::string_view attribute) const {
  return ValueBag(schema().AttributeIndex(attribute));
}

std::vector<Value> TableView::ValueBag(size_t col_index) const {
  const Column& col = column(col_index);
  std::vector<Value> bag;
  if (identity_) {
    col.BoxAllTo(&bag);
  } else {
    col.BoxGatheredTo(positions_, &bag);
  }
  return bag;
}

std::map<Value, size_t> TableView::ValueCounts(std::string_view attribute) const {
  const Column& col = column(schema().AttributeIndex(attribute));
  // Visits each viewed row's base position; the identity view reads rows
  // directly.
  auto for_each_position = [&](auto&& visit) {
    if (identity_) {
      for (size_t p = 0; p < BaseRows(); ++p) visit(p);
    } else {
      for (RowId p : positions_) visit(p);
    }
  };
  std::map<Value, size_t> counts;
  switch (col.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt: {
      const auto& ints = col.ints();
      const auto& nulls = col.null_mask();
      for_each_position([&](size_t p) {
        if (!nulls[p]) ++counts[Value::Int(ints[p])];
      });
      break;
    }
    case ValueType::kReal: {
      const auto& reals = col.reals();
      const auto& nulls = col.null_mask();
      for_each_position([&](size_t p) {
        if (!nulls[p]) ++counts[Value::Real(reals[p])];
      });
      break;
    }
    case ValueType::kString: {
      // Count per dictionary code first (O(1) per row), then box only the
      // distinct values.
      std::vector<size_t> per_code(col.dictionary().size(), 0);
      const auto& codes = col.codes();
      for_each_position([&](size_t p) {
        if (codes[p] != kNullCode) ++per_code[codes[p]];
      });
      for (uint32_t code = 0; code < per_code.size(); ++code) {
        if (per_code[code] > 0) {
          counts.emplace(Value::String(col.dictionary().value(code)),
                         per_code[code]);
        }
      }
      break;
    }
  }
  return counts;
}

TableView TableView::Select(PosList local_positions) const {
  PosList composed;
  composed.reserve(local_positions.size());
  for (RowId local : local_positions) composed.push_back(position(local));
  if (!schema_override_) return TableView(base(), std::move(composed));
  std::vector<size_t> column_map = column_map_;
  if (column_map.empty()) {
    column_map.resize(num_columns());
    std::iota(column_map.begin(), column_map.end(), 0u);
  }
  return TableView(base(), std::move(composed), *schema_override_,
                   std::move(column_map));
}

TableView TableView::Renamed(std::string new_name) const {
  TableSchema renamed(std::move(new_name));
  for (size_t c = 0; c < num_columns(); ++c) {
    const AttributeDef& attr = schema().attribute(c);
    renamed.AddAttribute(attr.name, attr.type);
  }
  std::vector<size_t> column_map = column_map_;
  if (column_map.empty()) {
    column_map.resize(num_columns());
    std::iota(column_map.begin(), column_map.end(), 0u);
  }
  return TableView(base(), Positions(), std::move(renamed),
                   std::move(column_map));
}

Table TableView::ToTable() const {
  std::vector<Column> columns;
  columns.reserve(num_columns());
  for (size_t c = 0; c < num_columns(); ++c) columns.push_back(GatherColumn(c));
  return Table::FromColumns(schema(), std::move(columns), num_rows());
}

}  // namespace csm
