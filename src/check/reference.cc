#include "check/reference.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <sstream>
#include <unordered_set>

#include "check/token_profile.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "text/string_distance.h"
#include "text/tokenizer.h"

namespace csm::check {
namespace {

/// A flat join result whose columns are qualified (relation, attribute)
/// pairs.
struct JoinedRows {
  std::vector<std::pair<std::string, std::string>> columns;
  std::vector<Row> rows;
  std::set<std::string> relations;

  std::optional<size_t> FindColumn(const std::string& relation,
                                   const std::string& attribute) const {
    for (size_t i = 0; i < columns.size(); ++i) {
      if (columns[i].first == relation && columns[i].second == attribute) {
        return i;
      }
    }
    return std::nullopt;
  }
};

/// Wraps a materialized relation instance as a JoinedRows, boxing each row
/// once.
JoinedRows Wrap(const Table& instance, const std::string& relation) {
  JoinedRows out;
  for (const auto& attr : instance.schema().attributes()) {
    out.columns.emplace_back(relation, attr.name);
  }
  out.rows.reserve(instance.num_rows());
  for (size_t r = 0; r < instance.num_rows(); ++r) {
    out.rows.push_back(instance.row(r));
  }
  out.relations.insert(relation);
  return out;
}

/// Encodes the join-key values of one row into `key`; false when any key
/// value is NULL (NULLs never join).
bool KeyOf(const Row& row, const std::vector<size_t>& cols, std::string* key) {
  key->clear();
  for (size_t c : cols) {
    if (row[c].is_null()) return false;
    AppendValueKey(row[c], key);
  }
  return true;
}

/// Full outer join of `left` with `right` on the given column equalities.
JoinedRows FullOuterJoin(const JoinedRows& left, const JoinedRows& right,
                         const std::vector<size_t>& left_cols,
                         const std::vector<size_t>& right_cols) {
  JoinedRows out;
  out.columns = left.columns;
  out.columns.insert(out.columns.end(), right.columns.begin(),
                     right.columns.end());
  out.relations = left.relations;
  out.relations.insert(right.relations.begin(), right.relations.end());

  std::map<std::string, std::vector<size_t>> right_index;
  std::string key;
  for (size_t r = 0; r < right.rows.size(); ++r) {
    if (KeyOf(right.rows[r], right_cols, &key)) {
      right_index[key].push_back(r);
    }
  }

  std::vector<bool> right_matched(right.rows.size(), false);
  for (const Row& lrow : left.rows) {
    const std::vector<size_t>* partners = nullptr;
    if (KeyOf(lrow, left_cols, &key)) {
      auto it = right_index.find(key);
      if (it != right_index.end()) partners = &it->second;
    }
    if (partners == nullptr) {
      Row combined = lrow;
      combined.resize(lrow.size() + right.columns.size());  // NULL padding
      out.rows.push_back(std::move(combined));
      continue;
    }
    for (size_t r : *partners) {
      right_matched[r] = true;
      Row combined = lrow;
      combined.insert(combined.end(), right.rows[r].begin(),
                      right.rows[r].end());
      out.rows.push_back(std::move(combined));
    }
  }
  for (size_t r = 0; r < right.rows.size(); ++r) {
    if (right_matched[r]) continue;
    Row combined(left.columns.size());  // NULL padding on the left
    combined.insert(combined.end(), right.rows[r].begin(),
                    right.rows[r].end());
    out.rows.push_back(std::move(combined));
  }
  return out;
}

/// Coerces `value` to `type`; NULL when the coercion is lossy/meaningless.
Value Coerce(const Value& value, ValueType type) {
  if (value.is_null() || value.type() == type) return value;
  switch (type) {
    case ValueType::kString:
      return Value::String(value.ToString());
    case ValueType::kReal:
      if (value.IsNumeric()) return Value::Real(value.AsNumeric());
      return Value::Null();
    case ValueType::kInt:
      if (value.type() == ValueType::kReal) {
        double d = value.AsReal();
        // Range first: casting NaN or a double outside [-2^63, 2^63) to an
        // integer is undefined behavior.
        if (d >= -9223372036854775808.0 && d < 9223372036854775808.0 &&
            d == static_cast<double>(static_cast<int64_t>(d))) {
          return Value::Int(static_cast<int64_t>(d));
        }
      }
      return Value::Null();
    case ValueType::kNull:
      return Value::Null();
  }
  return Value::Null();
}

}  // namespace

StatusOr<Table> ReferenceExecuteMapping(const MappingQuery& query,
                               const Database& source,
                               const std::vector<View>& views,
                               const TableSchema& target_schema) {
  if (query.logical.relations.empty()) {
    return Status::InvalidArgument("mapping query has no source relations");
  }

  // Materialize every relation of the logical table.
  std::map<std::string, Table> instances;
  for (const std::string& relation : query.logical.relations) {
    if (const Table* base = source.FindTable(relation)) {
      instances.emplace(relation, *base);
      continue;
    }
    bool found = false;
    for (const View& view : views) {
      if (view.name() != relation) continue;
      const Table* base = source.FindTable(view.base_table());
      if (base == nullptr) {
        return Status::NotFound("view base table '" + view.base_table() +
                                "' not in source");
      }
      instances.emplace(relation, view.Materialize(*base));
      found = true;
      break;
    }
    if (!found) {
      return Status::NotFound("relation '" + relation +
                              "' is neither a source table nor a view");
    }
  }

  // Join along the spanning edges; repeatedly pick an edge with exactly one
  // side already joined.
  JoinedRows joined =
      Wrap(instances.at(query.logical.relations[0]),
           query.logical.relations[0]);
  std::vector<const JoinEdge*> pending;
  for (const JoinEdge& edge : query.logical.joins) pending.push_back(&edge);

  while (!pending.empty()) {
    bool progress = false;
    for (auto it = pending.begin(); it != pending.end(); ++it) {
      const JoinEdge& edge = **it;
      const bool left_in = joined.relations.count(edge.left) > 0;
      const bool right_in = joined.relations.count(edge.right) > 0;
      if (left_in == right_in) continue;  // both or neither: defer/skip

      const std::string& incoming = left_in ? edge.right : edge.left;
      Table instance = instances.at(incoming);
      // (join 3) filter on the referenced side.
      if (edge.filter_attribute.has_value() && incoming == edge.right &&
          instance.schema().HasAttribute(*edge.filter_attribute)) {
        const Condition filter =
            Condition::Equals(*edge.filter_attribute, edge.filter_value);
        instance = instance.SelectRows(filter.MatchingPositions(instance));
      }
      JoinedRows incoming_rows = Wrap(instance, incoming);

      const auto& joined_attrs =
          left_in ? edge.left_attributes : edge.right_attributes;
      const auto& incoming_attrs =
          left_in ? edge.right_attributes : edge.left_attributes;
      const std::string& joined_rel = left_in ? edge.left : edge.right;

      std::vector<size_t> jcols, icols;
      for (size_t i = 0; i < joined_attrs.size(); ++i) {
        auto jc = joined.FindColumn(joined_rel, joined_attrs[i]);
        auto ic = incoming_rows.FindColumn(incoming, incoming_attrs[i]);
        if (!jc.has_value() || !ic.has_value()) {
          return Status::Internal("join attribute missing: " +
                                  edge.ToString());
        }
        jcols.push_back(*jc);
        icols.push_back(*ic);
      }
      joined = FullOuterJoin(joined, incoming_rows, jcols, icols);
      pending.erase(it);
      progress = true;
      break;
    }
    if (!progress) break;  // disconnected leftovers (shouldn't happen)
  }

  // Project into the target schema.
  Table result(target_schema);
  std::set<std::string> seen_rows;
  std::string fingerprint;
  for (const Row& row : joined.rows) {
    Row target_row;
    target_row.reserve(target_schema.num_attributes());
    // First pass: mapped values (also collected for Skolem arguments).
    std::string skolem_args;
    std::vector<Value> mapped(query.attr_mappings.size());
    for (size_t i = 0; i < query.attr_mappings.size(); ++i) {
      const TargetAttrMapping& m = query.attr_mappings[i];
      if (!m.source.has_value()) continue;
      auto col = joined.FindColumn(m.source->first, m.source->second);
      if (!col.has_value()) continue;
      mapped[i] = row[*col];
      if (!mapped[i].is_null()) {
        if (!skolem_args.empty()) skolem_args += ",";
        skolem_args += mapped[i].ToString();
      }
    }
    for (size_t i = 0; i < query.attr_mappings.size(); ++i) {
      const TargetAttrMapping& m = query.attr_mappings[i];
      size_t attr_index = target_schema.AttributeIndex(m.target_attribute);
      ValueType type = target_schema.attribute(attr_index).type;
      if (m.source.has_value()) {
        target_row.push_back(Coerce(mapped[i], type));
      } else if (m.skolem) {
        target_row.push_back(Value::String(
            "sk_" + query.target_table + "_" + m.target_attribute + "(" +
            skolem_args + ")"));
      } else {
        target_row.push_back(Value::Null());
      }
    }
    // Collapse exact duplicates.
    fingerprint.clear();
    for (const Value& v : target_row) AppendValueKey(v, &fingerprint);
    if (seen_rows.insert(fingerprint).second) {
      result.AddRow(std::move(target_row));
    }
  }
  return result;
}

StatusOr<Database> ReferenceExecuteMappings(
    const std::vector<MappingQuery>& queries, const Database& source,
    const std::vector<View>& views, const Schema& target_schema) {
  Database out(target_schema.name());
  for (const TableSchema& table_schema : target_schema.tables()) {
    Table merged(table_schema);
    for (const MappingQuery& query : queries) {
      if (query.target_table != table_schema.name()) continue;
      CSM_ASSIGN_OR_RETURN(
          Table part,
          ReferenceExecuteMapping(query, source, views, table_schema));
      // Re-encodes strings in row order: the dictionary codes a per-row
      // AddRow loop would assign.
      merged.AppendRowsFrom(part);
    }
    out.AddTable(std::move(merged));
  }
  return out;
}

namespace {

/// Splits one logical CSV record starting at `pos` into `fields`, reusing
/// their storage from the previous record; advances `pos` past the record's
/// trailing newline.  Handles quoted fields with embedded commas, quotes,
/// and newlines.  A blank line at the very end of `text` yields no fields:
/// it is the file's trailing newline, not a record.
Status ParseRecord(std::string_view text, size_t& pos,
                   std::vector<std::string>* fields) {
  size_t count = 0;
  auto next_field = [&]() -> std::string* {
    if (count == fields->size()) fields->emplace_back();
    std::string* field = &(*fields)[count++];
    field->clear();
    return field;
  };
  std::string* current = next_field();
  bool in_quotes = false;
  bool saw_any = false;
  while (pos < text.size()) {
    char c = text[pos];
    if (in_quotes) {
      if (c == '"') {
        if (pos + 1 < text.size() && text[pos + 1] == '"') {
          *current += '"';
          ++pos;
        } else {
          in_quotes = false;
        }
      } else {
        *current += c;
      }
      ++pos;
      saw_any = true;
      continue;
    }
    if (c == '"') {
      in_quotes = true;
      ++pos;
      saw_any = true;
      continue;
    }
    if (c == ',') {
      current = next_field();
      ++pos;
      saw_any = true;
      continue;
    }
    if (c == '\r') {
      // Record terminator: "\r\n" (DOS) or a bare "\r" (classic Mac).
      ++pos;
      if (pos < text.size() && text[pos] == '\n') ++pos;
      break;
    }
    if (c == '\n') {
      ++pos;
      break;
    }
    *current += c;
    ++pos;
    saw_any = true;
  }
  if (in_quotes) {
    return Status::InvalidArgument("unterminated quoted CSV field");
  }
  fields->resize(!saw_any && pos >= text.size() ? 0 : count);
  return Status::Ok();
}

}  // namespace

StatusOr<Table> ReferenceTableFromCsv(const TableSchema& schema,
                                      std::string_view csv) {
  size_t pos = 0;
  std::vector<std::string> fields;
  CSM_RETURN_IF_ERROR(ParseRecord(csv, pos, &fields));
  if (fields.size() != schema.num_attributes()) {
    return Status::InvalidArgument("CSV header arity mismatch for table '" +
                                   schema.name() + "'");
  }
  for (size_t c = 0; c < fields.size(); ++c) {
    if (fields[c] != schema.attribute(c).name) {
      return Status::InvalidArgument("CSV header mismatch: expected '" +
                                     schema.attribute(c).name + "', got '" +
                                     fields[c] + "'");
    }
  }
  Table out(schema);
  while (pos < csv.size()) {
    CSM_RETURN_IF_ERROR(ParseRecord(csv, pos, &fields));
    if (fields.empty()) continue;  // blank trailing line
    if (fields.size() != schema.num_attributes()) {
      return Status::InvalidArgument("CSV record arity mismatch in table '" +
                                     schema.name() + "'");
    }
    Row row;
    for (size_t c = 0; c < fields.size(); ++c) {
      CSM_ASSIGN_OR_RETURN(Value v,
                           Value::Parse(fields[c], schema.attribute(c).type));
      row.push_back(std::move(v));
    }
    out.AddRow(std::move(row));
  }
  return out;
}

std::string ReferenceQuoteField(const std::string& field) {
  if (field.find_first_of(",\"\n\r") == std::string::npos) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += "\"";
  return out;
}

std::string ReferenceTableToCsv(const Table& instance) {
  std::ostringstream os;
  const TableSchema& schema = instance.schema();
  for (size_t c = 0; c < schema.num_attributes(); ++c) {
    if (c > 0) os << ',';
    os << ReferenceQuoteField(schema.attribute(c).name);
  }
  os << '\n';
  for (size_t r = 0; r < instance.num_rows(); ++r) {
    std::string line;
    for (size_t c = 0; c < schema.num_attributes(); ++c) {
      if (c > 0) line += ',';
      line += ReferenceQuoteField(instance.ValueAt(r, c).ToString());
    }
    if (line.empty()) line = "\"\"";
    os << line << '\n';
  }
  return os.str();
}

PosList ReferenceSampleRowPositions(size_t num_rows, size_t sample_size,
                                    Rng& rng) {
  CSM_CHECK_LE(num_rows, static_cast<size_t>(RowId{0} - 1) + 1);
  if (sample_size >= num_rows) {
    PosList all(num_rows);
    std::iota(all.begin(), all.end(), RowId{0});
    return all;
  }
  PosList out;
  out.reserve(sample_size);
  std::unordered_set<RowId> chosen;
  chosen.reserve(sample_size * 2);
  for (size_t j = num_rows - sample_size; j < num_rows; ++j) {
    const RowId t = static_cast<RowId>(rng.NextBounded(j + 1));
    if (chosen.insert(t).second) {
      out.push_back(t);
    } else {
      chosen.insert(static_cast<RowId>(j));
      out.push_back(static_cast<RowId>(j));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool ReferenceIsCategoricalAttribute(const TableView& instance,
                                     std::string_view attribute,
                                     const CategoricalOptions& options) {
  constexpr double kValueFraction = 0.10;
  constexpr size_t kMinFrequentValues = 2;
  constexpr size_t kMinTuplesPerValue = 2;
  const std::map<Value, size_t> counts = instance.ValueCounts(attribute);
  if (counts.empty()) return false;
  size_t total_tuples = 0;
  for (const auto& [value, count] : counts) total_tuples += count;
  if (total_tuples == 0) return false;
  const double tuple_threshold =
      options.tuple_fraction * static_cast<double>(total_tuples);
  size_t frequent_values = 0;
  size_t values_with_min_tuples = 0;
  for (const auto& [value, count] : counts) {
    if (static_cast<double>(count) > tuple_threshold) ++frequent_values;
    if (count >= kMinTuplesPerValue) ++values_with_min_tuples;
  }
  const double frequent_fraction = static_cast<double>(frequent_values) /
                                   static_cast<double>(counts.size());
  if (frequent_fraction <= kValueFraction) return false;
  return values_with_min_tuples >= kMinFrequentValues;
}

double ReferenceNameScore(std::string_view source_attribute,
                          std::string_view target_attribute) {
  const double edit_sim = JaroWinklerSimilarity(ToLower(source_attribute),
                                                ToLower(target_attribute));
  TokenProfile a, b;
  for (const std::string& token : NameTokens(source_attribute)) a.Add(token);
  for (const std::string& token : NameTokens(target_attribute)) b.Add(token);
  return std::max(edit_sim, DiceSimilarity(a, b));
}

std::string GroupToken(const std::vector<Value>& members) {
  std::string out;
  for (size_t i = 0; i < members.size(); ++i) {
    if (i > 0) out += '\x1f';
    for (char c : members[i].ToString()) {
      if (c >= '\x1b' && c <= '\x1f') out += '\x1b';
      out += c;
    }
  }
  return out;
}

std::string FamilyPartitionKey(const ViewFamily& family) {
  std::vector<std::string> tokens;
  tokens.reserve(family.views.size());
  for (const View& view : family.views) {
    tokens.push_back(GroupToken(view.condition().clauses()[0].values));
  }
  std::sort(tokens.begin(), tokens.end());
  std::string out = family.label_attribute;
  out += '\x1d';
  for (const auto& token : tokens) {
    out += token;
    out += '\x1e';
  }
  return out;
}

}  // namespace csm::check
