#include "relational/view.h"

#include <set>

#include "check/invariants.h"
#include "common/logging.h"

namespace csm {

TableSchema View::ViewSchema(const TableSchema& base_schema) const {
  TableSchema out(name_);
  if (projection_.empty()) {
    for (const auto& attr : base_schema.attributes()) {
      out.AddAttribute(attr.name, attr.type);
    }
  } else {
    for (const auto& attr_name : projection_) {
      size_t index = base_schema.AttributeIndex(attr_name);
      out.AddAttribute(attr_name, base_schema.attribute(index).type);
    }
  }
  return out;
}

PosList View::Positions(const Table& base_instance) const {
  CSM_CHECK_EQ(base_instance.name(), base_table_);
  return condition_.MatchingPositions(base_instance);
}

TableView View::Bind(const Table& base_instance) const {
  PosList positions = Positions(base_instance);
  TableSchema view_schema = ViewSchema(base_instance.schema());
  std::vector<size_t> column_map;
  column_map.reserve(view_schema.num_attributes());
  if (projection_.empty()) {
    for (size_t c = 0; c < view_schema.num_attributes(); ++c) {
      column_map.push_back(c);
    }
  } else {
    for (const auto& attr_name : projection_) {
      column_map.push_back(base_instance.schema().AttributeIndex(attr_name));
    }
  }
  return TableView(base_instance, std::move(positions), std::move(view_schema),
                   std::move(column_map));
}

Table View::Materialize(const Table& base_instance) const {
  TableView bound = Bind(base_instance);
  Table out = bound.ToTable();
  // Row-count conservation: a select(-project) view emits exactly the rows
  // its condition accepts.  Under checks the count is re-derived via the
  // legacy row-at-a-time Condition::Evaluate, so the columnar scan path
  // cannot silently diverge from the row-store semantics.
  CSM_INVARIANT_EQ(out.num_rows(), bound.num_rows()) << ToString();
  CSM_INVARIANT_LE(out.num_rows(), base_instance.num_rows()) << ToString();
  if constexpr (check::kInvariantsEnabled) {
    size_t satisfied = 0;
    for (size_t r = 0; r < base_instance.num_rows(); ++r) {
      if (condition_.Evaluate(base_instance.schema(), base_instance.row(r))) {
        ++satisfied;
      }
    }
    CSM_INVARIANT_EQ(satisfied, out.num_rows()) << ToString();
  }
  return out;
}

std::string View::ToString() const {
  std::string cols = "*";
  if (!projection_.empty()) {
    cols.clear();
    for (size_t i = 0; i < projection_.size(); ++i) {
      if (i > 0) cols += ", ";
      cols += projection_[i];
    }
  }
  return name_ + " := select " + cols + " from " + base_table_ + " where " +
         condition_.ToString();
}

bool ViewFamily::IsWellFormed() const {
  std::set<Value> seen;
  for (const View& v : views) {
    if (v.base_table() != base_table) return false;
    if (v.condition().NumAttributes() != 1) return false;
    const ConditionClause& clause = v.condition().clauses()[0];
    if (clause.attribute != label_attribute) return false;
    for (const Value& value : clause.values) {
      if (!seen.insert(value).second) return false;  // overlap across views
    }
  }
  return true;
}

std::string ViewFamily::ToString() const {
  std::string out = "family(" + base_table + ", " + label_attribute + "): ";
  for (size_t i = 0; i < views.size(); ++i) {
    if (i > 0) out += "; ";
    out += views[i].condition().ToString();
  }
  return out;
}

ViewFamily MakeSimpleViewFamily(const Table& instance,
                                std::string_view label_attribute) {
  ViewFamily family;
  family.base_table = instance.name();
  family.label_attribute = std::string(label_attribute);
  for (const auto& [value, count] : instance.ValueCounts(label_attribute)) {
    std::string view_name = instance.name() + "[" +
                            std::string(label_attribute) + "=" +
                            value.ToString() + "]";
    family.views.emplace_back(
        view_name, instance.name(),
        Condition::Equals(std::string(label_attribute), value));
  }
  return family;
}

}  // namespace csm
