#include "mapping/validation.h"

#include <limits>
#include <map>
#include <optional>
#include <set>

#include "relational/table_view.h"

namespace csm {
namespace {

/// Resolves `relation` to an instance view: the identity view of a base
/// table of `instance`, or a zero-copy PosList view over one (the view's
/// matching positions are computed once and cached in `storage`; no rows
/// are copied).
TableView ResolveRelation(const Database& instance,
                          const std::vector<View>& views,
                          const std::string& relation,
                          std::map<std::string, TableView>& storage) {
  if (const Table* base = instance.FindTable(relation)) {
    return TableView(*base);
  }
  auto it = storage.find(relation);
  if (it != storage.end()) return it->second;
  for (const View& view : views) {
    if (view.name() != relation) continue;
    const Table* base = instance.FindTable(view.base_table());
    if (base == nullptr) return TableView();
    auto [inserted, ok] = storage.emplace(relation, view.Bind(*base));
    return inserted->second;
  }
  return TableView();
}

/// Length-prefixed (type, rendering) encoding of a projection
/// (AppendValueKey), so distinct projections never share a key; nullopt
/// when any value is NULL (NULL never equals NULL for key purposes, and
/// NULL FK values reference nothing).
std::optional<std::string> ProjectionKey(const TableView& table, size_t row,
                                         const std::vector<size_t>& cols) {
  std::string out;
  for (size_t c : cols) {
    const Value v = table.ValueAt(row, c);
    if (v.is_null()) return std::nullopt;
    AppendValueKey(v, &out);
  }
  return out;
}

std::optional<std::vector<size_t>> ResolveColumns(
    const TableView& table, const std::vector<std::string>& attributes) {
  std::vector<size_t> cols;
  for (const std::string& name : attributes) {
    auto index = table.schema().FindAttribute(name);
    if (!index.has_value()) return std::nullopt;
    cols.push_back(*index);
  }
  return cols;
}

std::string DescribeRow(const TableView& table, size_t row,
                        const std::vector<size_t>& cols) {
  std::string out = "(";
  for (size_t i = 0; i < cols.size(); ++i) {
    if (i > 0) out += ", ";
    out += table.ValueAt(row, cols[i]).ToString();
  }
  out += ")";
  return out;
}

}  // namespace

std::vector<ConstraintViolation> CheckConstraints(
    const Database& instance, const ConstraintSet& constraints,
    const std::vector<View>& views, size_t max_violations_per_constraint) {
  std::vector<ConstraintViolation> violations;
  std::map<std::string, TableView> resolved;
  const size_t cap = max_violations_per_constraint == 0
                         ? std::numeric_limits<size_t>::max()
                         : max_violations_per_constraint;

  // ---- Keys ------------------------------------------------------------
  for (const Key& key : constraints.keys) {
    const TableView table =
        ResolveRelation(instance, views, key.relation, resolved);
    if (!table.valid()) continue;
    auto cols = ResolveColumns(table, key.attributes);
    if (!cols.has_value()) continue;
    std::map<std::string, size_t> seen;
    size_t reported = 0;
    for (size_t r = 0; r < table.num_rows() && reported < cap; ++r) {
      auto k = ProjectionKey(table, r, *cols);
      if (!k.has_value()) continue;
      auto [it, inserted] = seen.emplace(*k, r);
      if (!inserted) {
        violations.push_back(ConstraintViolation{
            key.ToString(),
            "rows " + std::to_string(it->second) + " and " +
                std::to_string(r) + " share " +
                DescribeRow(table, r, *cols)});
        ++reported;
      }
    }
  }

  // ---- Foreign keys ------------------------------------------------------
  for (const ForeignKey& fk : constraints.foreign_keys) {
    const TableView referencing =
        ResolveRelation(instance, views, fk.referencing, resolved);
    const TableView referenced =
        ResolveRelation(instance, views, fk.referenced, resolved);
    if (!referencing.valid() || !referenced.valid()) continue;
    auto ref_cols = ResolveColumns(referencing, fk.fk_attributes);
    auto key_cols = ResolveColumns(referenced, fk.key_attributes);
    if (!ref_cols.has_value() || !key_cols.has_value()) continue;
    std::set<std::string> key_values;
    for (size_t r = 0; r < referenced.num_rows(); ++r) {
      if (auto k = ProjectionKey(referenced, r, *key_cols)) {
        key_values.insert(*k);
      }
    }
    size_t reported = 0;
    for (size_t r = 0; r < referencing.num_rows() && reported < cap; ++r) {
      auto k = ProjectionKey(referencing, r, *ref_cols);
      if (!k.has_value()) continue;  // NULL FK references nothing
      if (key_values.count(*k) == 0) {
        violations.push_back(ConstraintViolation{
            fk.ToString(), "row " + std::to_string(r) + " value " +
                               DescribeRow(referencing, r, *ref_cols) +
                               " has no referent"});
        ++reported;
      }
    }
  }

  // ---- Contextual foreign keys -------------------------------------------
  for (const ContextualForeignKey& cfk : constraints.contextual_foreign_keys) {
    const TableView view_instance =
        ResolveRelation(instance, views, cfk.view, resolved);
    const TableView referenced =
        ResolveRelation(instance, views, cfk.referenced, resolved);
    if (!view_instance.valid() || !referenced.valid()) continue;
    auto y_cols = ResolveColumns(view_instance, cfk.fk_attributes);
    // Referenced key is [X, B].
    std::vector<std::string> xb = cfk.key_attributes;
    xb.push_back(cfk.referenced_context_attribute);
    auto xb_cols = ResolveColumns(referenced, xb);
    if (!y_cols.has_value() || !xb_cols.has_value()) continue;
    std::set<std::string> key_values;
    for (size_t r = 0; r < referenced.num_rows(); ++r) {
      if (auto k = ProjectionKey(referenced, r, *xb_cols)) {
        key_values.insert(*k);
      }
    }
    // The referencing projection is [Y] augmented with the constant v.
    std::string v_suffix;
    AppendValueKey(cfk.context_value, &v_suffix);
    size_t reported = 0;
    for (size_t r = 0; r < view_instance.num_rows() && reported < cap; ++r) {
      auto k = ProjectionKey(view_instance, r, *y_cols);
      if (!k.has_value()) continue;
      if (key_values.count(*k + v_suffix) == 0) {
        violations.push_back(ConstraintViolation{
            cfk.ToString(), "row " + std::to_string(r) + " value " +
                                DescribeRow(view_instance, r, *y_cols) +
                                " has no referent with " +
                                cfk.referenced_context_attribute + " = " +
                                cfk.context_value.ToString()});
        ++reported;
      }
    }
  }
  return violations;
}

}  // namespace csm
