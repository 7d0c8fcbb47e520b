// Shared helpers for the csm test suite: compact table and column builders.

#ifndef CSM_TESTS_TEST_UTIL_H_
#define CSM_TESTS_TEST_UTIL_H_

#include <string>
#include <vector>

#include "relational/table.h"

namespace csm {
namespace testing {

/// Builds a table whose attribute types are inferred from the first row's
/// cell types (NULLs default to string).
inline Table MakeTable(const std::string& name,
                       const std::vector<std::string>& attribute_names,
                       const std::vector<Row>& rows) {
  TableSchema schema(name);
  for (size_t c = 0; c < attribute_names.size(); ++c) {
    ValueType type = ValueType::kString;
    for (const Row& row : rows) {
      if (c < row.size() && !row[c].is_null()) {
        type = row[c].type();
        break;
      }
    }
    schema.AddAttribute(attribute_names[c], type);
  }
  Table table(schema);
  for (const Row& row : rows) table.AddRow(row);
  return table;
}

/// Builds a column of `type` holding `cells` in order.
inline Column MakeColumn(ValueType type, const std::vector<Value>& cells) {
  Column column(type);
  for (const Value& cell : cells) column.Append(cell);
  return column;
}

inline Value S(const char* s) { return Value::String(s); }
inline Value I(int64_t i) { return Value::Int(i); }
inline Value R(double r) { return Value::Real(r); }
inline Value N() { return Value::Null(); }

}  // namespace testing
}  // namespace csm

#endif  // CSM_TESTS_TEST_UTIL_H_
