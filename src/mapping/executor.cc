#include "mapping/executor.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/logging.h"

namespace csm {
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

/// A hashable rendering of the join-key values of one row; nullopt when any
/// key value is NULL (NULLs never join).
std::optional<std::string> KeyOf(const Row& row,
                                 const std::vector<size_t>& cols) {
  std::string key;
  for (size_t c : cols) {
    if (row[c].is_null()) return std::nullopt;
    key += std::to_string(static_cast<int>(row[c].type()));
    key += ':';
    key += row[c].ToString();
    key += '\x1f';
  }
  return key;
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
  for (size_t r = 0; r < right.rows.size(); ++r) {
    if (auto key = KeyOf(right.rows[r], right_cols)) {
      right_index[*key].push_back(r);
    }
  }

  std::vector<bool> right_matched(right.rows.size(), false);
  for (const Row& lrow : left.rows) {
    auto key = KeyOf(lrow, left_cols);
    const std::vector<size_t>* partners = nullptr;
    if (key.has_value()) {
      auto it = right_index.find(*key);
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
        if (d == static_cast<double>(static_cast<int64_t>(d))) {
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

StatusOr<Table> ExecuteMapping(const MappingQuery& query,
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
    std::string fingerprint;
    for (const Value& v : target_row) {
      fingerprint += std::to_string(static_cast<int>(v.type())) + ":" +
                     v.ToString() + '\x1f';
    }
    if (seen_rows.insert(std::move(fingerprint)).second) {
      result.AddRow(std::move(target_row));
    }
  }
  return result;
}

StatusOr<Database> ExecuteMappings(const std::vector<MappingQuery>& queries,
                                   const Database& source,
                                   const std::vector<View>& views,
                                   const Schema& target_schema) {
  Database out(target_schema.name());
  for (const TableSchema& table_schema : target_schema.tables()) {
    Table merged(table_schema);
    for (const MappingQuery& query : queries) {
      if (query.target_table != table_schema.name()) continue;
      CSM_ASSIGN_OR_RETURN(Table part,
                           ExecuteMapping(query, source, views, table_schema));
      // Re-encodes strings in row order: the dictionary codes a per-row
      // AddRow loop would assign.
      merged.AppendRowsFrom(part);
    }
    out.AddTable(std::move(merged));
  }
  return out;
}

}  // namespace csm
