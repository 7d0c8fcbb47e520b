#include "relational/condition.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"

namespace csm {

namespace {

/// One clause translated against a concrete column: the subset of the
/// clause's literals that could possibly equal a cell of the column's type,
/// as raw typed values (dictionary codes for strings).  Sorted for
/// binary_search; usually a handful of entries.
struct CompiledClause {
  const Column* col = nullptr;
  std::vector<int64_t> ints;
  std::vector<double> reals;  // never NaN
  bool nan = false;           // a NaN literal matches NaN cells only
  std::vector<uint32_t> codes;

  bool Matches(RowId p) const {
    switch (col->type()) {
      case ValueType::kNull:
        return false;  // every cell is NULL; NULL never matches
      case ValueType::kInt:
        return !col->null_mask()[p] &&
               std::binary_search(ints.begin(), ints.end(), col->ints()[p]);
      case ValueType::kReal: {
        if (col->null_mask()[p]) return false;
        const double cell = col->reals()[p];
        return std::isnan(cell)
                   ? nan
                   : std::binary_search(reals.begin(), reals.end(), cell);
      }
      case ValueType::kString: {
        const uint32_t code = col->codes()[p];
        return code != kNullCode &&
               std::binary_search(codes.begin(), codes.end(), code);
      }
    }
    return false;
  }
};

CompiledClause CompileClause(const ConditionClause& clause, const Column& col) {
  CompiledClause out;
  out.col = &col;
  for (const Value& v : clause.values) {
    switch (col.type()) {
      case ValueType::kNull:
        break;
      case ValueType::kInt:
        if (v.type() == ValueType::kInt) out.ints.push_back(v.AsInt());
        break;
      case ValueType::kReal:
        if (v.type() == ValueType::kReal) out.reals.push_back(v.AsReal());
        break;
      case ValueType::kString:
        if (v.type() == ValueType::kString) {
          // A literal the dictionary never saw cannot match any cell.
          if (auto code = col.CodeFor(v.AsString())) {
            out.codes.push_back(*code);
          }
        }
        break;
    }
  }
  out.nan =
      std::erase_if(out.reals, [](double d) { return std::isnan(d); }) > 0;
  std::sort(out.ints.begin(), out.ints.end());
  std::sort(out.reals.begin(), out.reals.end());
  std::sort(out.codes.begin(), out.codes.end());
  return out;
}

/// Row indices r in [0, n) whose cells satisfy every clause, in ascending
/// order.  `column_of(c)` is the segment backing schema column c, and
/// `position_of(r)` the segment position of row r.  The first clause scans
/// every row; the rest filter its survivors.
template <typename ColumnOf, typename PositionOf>
PosList ScanClauses(const std::vector<ConditionClause>& clauses,
                    const TableSchema& schema, size_t n, ColumnOf column_of,
                    PositionOf position_of) {
  PosList out;
  if (clauses.empty()) {
    out.resize(n);
    std::iota(out.begin(), out.end(), RowId{0});
    return out;
  }
  std::vector<CompiledClause> compiled;
  compiled.reserve(clauses.size());
  for (const auto& clause : clauses) {
    const size_t col = schema.AttributeIndex(clause.attribute);
    compiled.push_back(CompileClause(clause, column_of(col)));
  }
  for (RowId r = 0; r < n; ++r) {
    if (compiled[0].Matches(position_of(r))) out.push_back(r);
  }
  for (size_t k = 1; k < compiled.size() && !out.empty(); ++k) {
    const CompiledClause& cc = compiled[k];
    out.erase(std::remove_if(out.begin(), out.end(),
                             [&](RowId r) { return !cc.Matches(position_of(r)); }),
              out.end());
  }
  return out;
}

}  // namespace

void ConditionClause::Normalize() {
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
}

bool ConditionClause::Matches(const Value& v) const {
  if (v.is_null()) return false;
  return std::binary_search(values.begin(), values.end(), v);
}

std::string ConditionClause::ToString() const {
  // String literals are quoted SQL-style, embedded quotes doubled, so a
  // string value cannot spell a list separator.  Distinct clauses can still
  // render alike (reals, -0.0 and 0.0, attribute names holding " = "):
  // ViewId (relational/view.h), not this text, identifies a view.
  auto quote = [](const Value& v) {
    if (v.type() != ValueType::kString) return v.ToString();
    std::string out = "'";
    for (char c : v.AsString()) {
      if (c == '\'') out += '\'';
      out += c;
    }
    return out + "'";
  };
  if (values.size() == 1) {
    return attribute + " = " + quote(values[0]);
  }
  std::string out = attribute + " in {";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += quote(values[i]);
  }
  out += "}";
  return out;
}

Condition Condition::Equals(std::string attribute, Value value) {
  Condition c;
  c.AddClause(std::move(attribute), {std::move(value)});
  return c;
}

Condition Condition::In(std::string attribute, std::vector<Value> values) {
  Condition c;
  c.AddClause(std::move(attribute), std::move(values));
  return c;
}

bool Condition::MentionsAttribute(std::string_view attribute) const {
  for (const auto& clause : clauses_) {
    if (clause.attribute == attribute) return true;
  }
  return false;
}

std::vector<std::string> Condition::MentionedAttributes() const {
  std::vector<std::string> out;
  out.reserve(clauses_.size());
  for (const auto& clause : clauses_) out.push_back(clause.attribute);
  return out;
}

void Condition::AddClause(std::string attribute, std::vector<Value> values) {
  CSM_CHECK(!MentionsAttribute(attribute))
      << "condition already mentions '" << attribute << "'";
  CSM_CHECK(!values.empty()) << "empty IN-list for '" << attribute << "'";
  ConditionClause clause{std::move(attribute), std::move(values)};
  clause.Normalize();
  clauses_.push_back(std::move(clause));
}

Condition Condition::Conjoin(const Condition& other) const {
  Condition out = *this;
  for (const auto& clause : other.clauses_) {
    out.AddClause(clause.attribute, clause.values);
  }
  return out;
}

bool Condition::Evaluate(const TableSchema& schema, const Row& row) const {
  for (const auto& clause : clauses_) {
    size_t col = schema.AttributeIndex(clause.attribute);
    CSM_CHECK_LT(col, row.size());
    if (!clause.Matches(row[col])) return false;
  }
  return true;
}

PosList Condition::MatchingPositions(const Table& instance) const {
  return ScanClauses(clauses_, instance.schema(), instance.num_rows(),
                     [&instance](size_t col) -> const Column& {
                       return instance.column(col);
                     },
                     [](RowId r) { return r; });
}

PosList Condition::MatchingPositions(const TableView& view) const {
  return ScanClauses(clauses_, view.schema(), view.num_rows(),
                     [&view](size_t col) -> const Column& {
                       return view.column(col);
                     },
                     [&view](RowId r) { return view.position(r); });
}

std::string Condition::ToString() const {
  if (clauses_.empty()) return "true";
  std::string out;
  for (size_t i = 0; i < clauses_.size(); ++i) {
    if (i > 0) out += " and ";
    out += clauses_[i].ToString();
  }
  return out;
}

}  // namespace csm
