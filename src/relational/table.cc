#include "relational/table.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"

namespace csm {

Table::Table(TableSchema schema) : schema_(std::move(schema)) {
  columns_.reserve(schema_.num_attributes());
  for (const auto& attr : schema_.attributes()) {
    columns_.emplace_back(attr.type);
  }
}

Table::Table(Table&& other) noexcept
    : schema_(std::move(other.schema_)),
      columns_(std::move(other.columns_)),
      num_rows_(other.num_rows_) {
  other.num_rows_ = 0;
}

Table& Table::operator=(Table&& other) noexcept {
  if (this == &other) return *this;
  schema_ = std::move(other.schema_);
  columns_ = std::move(other.columns_);
  num_rows_ = other.num_rows_;
  other.num_rows_ = 0;
  return *this;
}

void Table::AddRow(Row row) {
  CSM_CHECK_EQ(row.size(), schema_.num_attributes())
      << "row arity mismatch for table '" << name() << "'";
  CSM_CHECK_LT(num_rows_, static_cast<size_t>(kNullCode))
      << "table '" << name() << "' row capacity exceeded";
  for (size_t i = 0; i < row.size(); ++i) {
    if (row[i].is_null()) continue;
    CSM_CHECK(row[i].type() == schema_.attribute(i).type)
        << "type mismatch in '" << name() << "." << schema_.attribute(i).name
        << "': expected " << ValueTypeToString(schema_.attribute(i).type)
        << ", got " << ValueTypeToString(row[i].type());
  }
  for (size_t i = 0; i < row.size(); ++i) {
    columns_[i].Append(row[i]);
  }
  ++num_rows_;
}

Status Table::AddRowFromText(const std::vector<std::string>& fields) {
  if (fields.size() != schema_.num_attributes()) {
    return Status::InvalidArgument("record arity mismatch in table '" +
                                   name() + "'");
  }
  CSM_CHECK_LT(num_rows_, static_cast<size_t>(kNullCode))
      << "table '" << name() << "' row capacity exceeded";
  for (size_t i = 0; i < fields.size(); ++i) {
    Status s = columns_[i].AppendParsed(fields[i]);
    if (!s.ok()) {
      // Roll back the cells already appended so the table stays rectangular.
      for (size_t j = 0; j < i; ++j) columns_[j].PopBack();
      return s;
    }
  }
  ++num_rows_;
  return Status::Ok();
}

void Table::Reserve(size_t n) {
  for (auto& col : columns_) col.Reserve(n);
}

void Table::AppendRowsFrom(const Table& other) {
  CSM_CHECK_EQ(other.schema_.num_attributes(), schema_.num_attributes())
      << "schema arity mismatch appending into table '" << name() << "'";
  for (size_t i = 0; i < schema_.num_attributes(); ++i) {
    CSM_CHECK(other.schema_.attribute(i).name == schema_.attribute(i).name &&
              other.schema_.attribute(i).type == schema_.attribute(i).type)
        << "schema mismatch appending into '" << name() << "' at attribute '"
        << schema_.attribute(i).name << "'";
  }
  CSM_CHECK_LE(other.num_rows_, static_cast<size_t>(kNullCode) - num_rows_)
      << "table '" << name() << "' row capacity exceeded";
  for (size_t i = 0; i < columns_.size(); ++i) {
    columns_[i].AppendFrom(other.columns_[i]);
  }
  num_rows_ += other.num_rows_;
}

Row Table::row(size_t index) const {
  CSM_CHECK_LT(index, num_rows_);
  Row out;
  out.reserve(columns_.size());
  for (const auto& col : columns_) out.push_back(col.GetValue(index));
  return out;
}

Value Table::ValueAt(size_t row_index, size_t col_index) const {
  CSM_CHECK_LT(col_index, columns_.size());
  return columns_[col_index].GetValue(row_index);
}

Value Table::ValueAt(size_t row_index, std::string_view attribute) const {
  return ValueAt(row_index, schema_.AttributeIndex(attribute));
}

const Column& Table::column(size_t col_index) const {
  CSM_CHECK_LT(col_index, columns_.size());
  return columns_[col_index];
}

std::vector<Value> Table::ValueBag(std::string_view attribute) const {
  return ValueBag(schema_.AttributeIndex(attribute));
}

std::vector<Value> Table::ValueBag(size_t col_index) const {
  CSM_CHECK_LT(col_index, schema_.num_attributes());
  std::vector<Value> bag;
  columns_[col_index].BoxAllTo(&bag);
  return bag;
}

std::map<Value, size_t> Table::ValueCounts(std::string_view attribute) const {
  size_t col_index = schema_.AttributeIndex(attribute);
  const Column& col = columns_[col_index];
  std::map<Value, size_t> counts;
  switch (col.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt: {
      const auto& ints = col.ints();
      const auto& nulls = col.null_mask();
      for (size_t r = 0; r < num_rows_; ++r) {
        if (!nulls[r]) ++counts[Value::Int(ints[r])];
      }
      break;
    }
    case ValueType::kReal: {
      const auto& reals = col.reals();
      const auto& nulls = col.null_mask();
      for (size_t r = 0; r < num_rows_; ++r) {
        if (!nulls[r]) ++counts[Value::Real(reals[r])];
      }
      break;
    }
    case ValueType::kString: {
      // Count per dictionary code first (O(1) per row), then box only the
      // distinct values.
      std::vector<size_t> per_code(col.dictionary().size(), 0);
      for (uint32_t code : col.codes()) {
        if (code != kNullCode) ++per_code[code];
      }
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

Table Table::SelectRows(const std::vector<size_t>& indices) const {
  PosList positions;
  positions.reserve(indices.size());
  for (size_t index : indices) {
    CSM_CHECK_LT(index, num_rows_);
    positions.push_back(static_cast<RowId>(index));
  }
  return SelectRows(positions);
}

Table Table::SelectRows(const PosList& positions) const {
  std::vector<Column> gathered;
  gathered.reserve(columns_.size());
  for (const auto& col : columns_) gathered.push_back(col.Gather(positions));
  return FromColumns(schema_, std::move(gathered), positions.size());
}

Table Table::Renamed(std::string new_name) const {
  TableSchema renamed(std::move(new_name));
  for (const auto& attr : schema_.attributes()) {
    renamed.AddAttribute(attr.name, attr.type);
  }
  return FromColumns(std::move(renamed), columns_, num_rows_);
}

Table Table::FromColumns(TableSchema schema, std::vector<Column> columns,
                         size_t num_rows) {
  CSM_CHECK_EQ(columns.size(), schema.num_attributes());
  for (size_t i = 0; i < columns.size(); ++i) {
    CSM_CHECK(columns[i].type() == schema.attribute(i).type)
        << "column type mismatch for '" << schema.attribute(i).name << "'";
    CSM_CHECK_EQ(columns[i].size(), num_rows);
  }
  Table out;
  out.schema_ = std::move(schema);
  out.columns_ = std::move(columns);
  out.num_rows_ = num_rows;
  return out;
}

std::string Table::ToString(size_t max_rows) const {
  std::ostringstream os;
  os << schema_.ToString() << ", " << num_rows_ << " rows\n";
  // Compute column widths over the printed prefix.
  size_t printed = std::min(max_rows, num_rows_);
  std::vector<size_t> widths(schema_.num_attributes());
  for (size_t c = 0; c < schema_.num_attributes(); ++c) {
    widths[c] = schema_.attribute(c).name.size();
    for (size_t r = 0; r < printed; ++r) {
      widths[c] = std::max(widths[c], ValueAt(r, c).ToString().size());
    }
    widths[c] = std::min<size_t>(widths[c], 28);
  }
  auto print_cell = [&](const std::string& text, size_t width) {
    std::string clipped =
        text.size() > width ? text.substr(0, width - 1) + "~" : text;
    os << clipped << std::string(width - clipped.size() + 2, ' ');
  };
  for (size_t c = 0; c < schema_.num_attributes(); ++c) {
    print_cell(schema_.attribute(c).name, widths[c]);
  }
  os << "\n";
  for (size_t r = 0; r < printed; ++r) {
    for (size_t c = 0; c < schema_.num_attributes(); ++c) {
      print_cell(ValueAt(r, c).ToString(), widths[c]);
    }
    os << "\n";
  }
  if (printed < num_rows_) {
    os << "... (" << num_rows_ - printed << " more rows)\n";
  }
  return os.str();
}

void Database::AddTable(Table table) {
  CSM_CHECK(!HasTable(table.name()))
      << "duplicate table '" << table.name() << "'";
  tables_.push_back(std::move(table));
}

const Table* Database::FindTable(std::string_view name) const {
  for (const auto& table : tables_) {
    if (table.name() == name) return &table;
  }
  return nullptr;
}

Table* Database::FindMutableTable(std::string_view name) {
  for (auto& table : tables_) {
    if (table.name() == name) return &table;
  }
  return nullptr;
}

const Table& Database::GetTable(std::string_view name) const {
  const Table* table = FindTable(name);
  CSM_CHECK(table != nullptr) << "no table '" << name << "'";
  return *table;
}

Schema Database::GetSchema() const {
  Schema schema(name_);
  for (const auto& table : tables_) schema.AddTable(table.schema());
  return schema;
}

}  // namespace csm
