// FuzzExecutorEquivalence: the columnar mapping executor against the
// row-at-a-time reference (check/reference.h) on random source databases,
// views and mapping queries.

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "check/fuzz.h"
#include "check/generators.h"
#include "check/reference.h"
#include "mapping/executor.h"
#include "relational/csv.h"

namespace csm::check {
namespace {

// Small value pools, so keys repeat and joins fan out.  Reals hold
// rendering-equal pairs (0.1+0.2 and 0.3 render "0.3"; 1234567.25 and
// 1234567.5 render "1.23457e+06"), -0.0 next to 0.0, NaN, the infinities
// and values outside int64's range; strings hold CSV specials, numeric
// look-alikes and the control bytes 0x1b-0x1f that row keys once used as
// separators.

const std::vector<int64_t>& IntPool() {
  static const std::vector<int64_t> kInts = {
      -2, -1, 0, 1, 2, 3, std::numeric_limits<int64_t>::min(),
      std::numeric_limits<int64_t>::max()};
  return kInts;
}

const std::vector<double>& RealPool() {
  static const std::vector<double> kReals = {
      0.1 + 0.2, 0.3, -0.0, 0.0, 1.5, 2.0, 3.0, 1234567.25, 1234567.5,
      1e20, -1e20, 9223372036854775808.0, -9223372036854775808.0,
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(), 1e-7};
  return kReals;
}

const std::vector<std::string>& StringPool() {
  static const std::vector<std::string> kStrings = {
      "a", "b", "p", "", "x,y", "say \"hi\"", "p\x1f" "3:q", "q\x1f" "3:r",
      "\x1b", "\x1c\x1d", "\x1e", "two\nlines", "cr\r\nlf", "0.3", "1",
      "-0.0"};
  return kStrings;
}

template <typename T>
const T& Pick(const std::vector<T>& pool, Rng& rng) {
  return pool[rng.NextBounded(pool.size())];
}

ValueType RandomType(Rng& rng) {
  switch (rng.NextBounded(12)) {
    case 0: case 1: case 2:
      return ValueType::kInt;
    case 3: case 4: case 5:
      return ValueType::kReal;
    case 6:
      return ValueType::kNull;
    default:
      return ValueType::kString;
  }
}

Value RandomValue(ValueType type, Rng& rng) {
  switch (type) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kInt:
      return Value::Int(Pick(IntPool(), rng));
    case ValueType::kReal:
      return Value::Real(Pick(RealPool(), rng));
    case ValueType::kString:
      return Value::String(Pick(StringPool(), rng));
  }
  return Value::Null();
}

/// A random table over attributes drawn from a shared name pool (so
/// relations share attribute names), rows from the value pools.
Table RandomSourceTable(const std::string& name, size_t max_rows, Rng& rng) {
  static const std::vector<std::string> kNames = {"k", "s", "r", "i", "v",
                                                  "w"};
  std::vector<std::string> names = kNames;
  rng.Shuffle(names);
  names.resize(1 + rng.NextBounded(5));
  TableSchema schema(name);
  for (const std::string& attr : names) schema.AddAttribute(attr, RandomType(rng));
  Table table(schema);
  const size_t rows = rng.NextBounded(max_rows + 1);
  for (size_t r = 0; r < rows; ++r) {
    Row row;
    for (const AttributeDef& attr : schema.attributes()) {
      row.push_back(rng.NextDouble() < 0.15 ? Value::Null()
                                            : RandomValue(attr.type, rng));
    }
    table.AddRow(std::move(row));
  }
  return table;
}

/// 0-2 clauses over distinct attributes.  Literals come from the pools
/// without NaN, which would break the clause's sorted IN-list.
Condition RandomViewCondition(const TableSchema& schema, Rng& rng) {
  Condition condition;
  std::vector<size_t> cols(schema.num_attributes());
  for (size_t c = 0; c < cols.size(); ++c) cols[c] = c;
  rng.Shuffle(cols);
  cols.resize(std::min<size_t>(cols.size(), rng.NextBounded(3)));
  for (size_t c : cols) {
    const AttributeDef& attr = schema.attribute(c);
    std::vector<Value> values;
    const size_t n = 1 + rng.NextBounded(3);
    for (size_t i = 0; i < n; ++i) {
      Value v = RandomValue(attr.type == ValueType::kNull ? ValueType::kInt
                                                          : attr.type,
                            rng);
      if (v.type() == ValueType::kReal && std::isnan(v.AsReal())) continue;
      values.push_back(std::move(v));
    }
    if (!values.empty()) condition.AddClause(attr.name, std::move(values));
  }
  return condition;
}

/// One random executor input: a source database, views over it, a target
/// schema and queries into it.
struct MappingInput {
  Database source{"src"};
  std::vector<View> views;
  Schema target{"tgt"};
  std::vector<MappingQuery> queries;
};

MappingInput RandomMappingInput(Rng& rng) {
  MappingInput in;
  // Wide joins multiply rows; keep their inputs small.
  const size_t max_rows = rng.NextBounded(3) == 0 ? 40 : 12;
  const size_t num_tables = 1 + rng.NextBounded(3);
  std::vector<std::string> relations;
  std::vector<TableSchema> schemas;
  for (size_t t = 0; t < num_tables; ++t) {
    Table table = RandomSourceTable("T" + std::to_string(t), max_rows, rng);
    relations.push_back(table.name());
    schemas.push_back(table.schema());
    in.source.AddTable(std::move(table));
  }
  const size_t num_views = rng.NextBounded(4);
  for (size_t v = 0; v < num_views; ++v) {
    const size_t base = rng.NextBounded(num_tables);
    const TableSchema& base_schema = schemas[base];
    const std::string name = "V" + std::to_string(v);
    Condition condition = RandomViewCondition(base_schema, rng);
    if (rng.NextBounded(2) == 0) {
      in.views.emplace_back(name, base_schema.name(), std::move(condition));
    } else {  // SP view: a non-empty attribute subset in random order
      std::vector<std::string> projection;
      for (const AttributeDef& attr : base_schema.attributes()) {
        projection.push_back(attr.name);
      }
      rng.Shuffle(projection);
      projection.resize(1 + rng.NextBounded(projection.size()));
      in.views.emplace_back(name, base_schema.name(), std::move(condition),
                            std::move(projection));
    }
    relations.push_back(name);
    schemas.push_back(in.views.back().ViewSchema(base_schema));
  }
  // Rare error paths: a view over a missing table, a missing relation.
  if (rng.NextBounded(25) == 0) {
    in.views.emplace_back("ghost_view", "ghost", Condition::True());
    relations.push_back("ghost_view");
    schemas.push_back(TableSchema("ghost_view"));
  }
  if (rng.NextBounded(25) == 0) {
    relations.push_back("missing");
    schemas.push_back(TableSchema("missing"));
  }

  const size_t num_targets = 1 + rng.NextBounded(2);
  for (size_t t = 0; t < num_targets; ++t) {
    TableSchema target("Out" + std::to_string(t));
    const size_t width = 1 + rng.NextBounded(5);
    for (size_t a = 0; a < width; ++a) {
      target.AddAttribute("t" + std::to_string(a), RandomType(rng));
    }
    in.target.AddTable(target);
  }

  auto random_attribute = [&rng](const TableSchema& schema) -> std::string {
    if (schema.num_attributes() == 0 || rng.NextBounded(30) == 0) {
      return "nope";
    }
    return schema.attribute(rng.NextBounded(schema.num_attributes())).name;
  };

  const size_t num_queries = 1 + rng.NextBounded(3);
  for (size_t q = 0; q < num_queries; ++q) {
    MappingQuery query;
    const TableSchema& target =
        in.target.tables()[rng.NextBounded(in.target.tables().size())];
    query.target_table = target.name();
    // 1-5 distinct relations; each joins a random earlier one (a chain of
    // up to four joins), with a random orientation and edge order.
    std::vector<size_t> picks(relations.size());
    for (size_t i = 0; i < picks.size(); ++i) picks[i] = i;
    rng.Shuffle(picks);
    picks.resize(std::min<size_t>(picks.size(), 1 + rng.NextBounded(5)));
    for (size_t p : picks) query.logical.relations.push_back(relations[p]);
    for (size_t i = 1; i < picks.size(); ++i) {
      size_t a = picks[rng.NextBounded(i)];
      size_t b = picks[i];
      if (rng.NextBounded(2) == 0) std::swap(a, b);
      JoinEdge edge;
      edge.left = relations[a];
      edge.right = relations[b];
      const size_t num_keys = rng.NextBounded(30) == 0 ? 0 : 1 + rng.NextBounded(2);
      for (size_t k = 0; k < num_keys; ++k) {
        const TableSchema& ls = schemas[a];
        const TableSchema& rs = schemas[b];
        std::string left_attr = random_attribute(ls);
        std::string right_attr = random_attribute(rs);
        // Prefer a same-typed partner so keys actually meet.
        if (auto lc = ls.FindAttribute(left_attr); lc && rng.NextBounded(10) < 7) {
          for (const AttributeDef& attr : rs.attributes()) {
            if (attr.type == ls.attribute(*lc).type) {
              right_attr = attr.name;
              break;
            }
          }
        }
        edge.left_attributes.push_back(left_attr);
        edge.right_attributes.push_back(right_attr);
      }
      if (rng.NextBounded(10) < 3) {  // join 3
        edge.rule = JoinRuleKind::kJoin3;
        edge.filter_attribute = random_attribute(schemas[b]);
        edge.filter_value = RandomValue(RandomType(rng), rng);
      }
      query.logical.joins.push_back(std::move(edge));
    }
    if (rng.NextBounded(10) == 0 && !query.logical.joins.empty()) {
      query.logical.joins.push_back(query.logical.joins.front());  // redundant
    }
    rng.Shuffle(query.logical.joins);

    for (const AttributeDef& attr : target.attributes()) {
      TargetAttrMapping m;
      m.target_attribute = attr.name;
      const uint64_t kind = rng.NextBounded(10);
      if (kind < 7) {
        const size_t p = picks[rng.NextBounded(picks.size())];
        m.source = std::make_pair(relations[p], random_attribute(schemas[p]));
      } else if (attr.type == ValueType::kString && kind < 9) {
        m.skolem = true;
      }
      query.attr_mappings.push_back(std::move(m));
    }
    in.queries.push_back(std::move(query));
  }
  return in;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

/// Schema, row order and every cell's type and bits; with `dictionaries`,
/// also every string column's codes and dictionary entries.
Status CompareExact(const Table& expected, const Table& actual,
                    bool dictionaries) {
  if (expected.schema().ToString() != actual.schema().ToString()) {
    return Status::Internal("schema " + actual.schema().ToString() + " != " +
                            expected.schema().ToString());
  }
  for (size_t c = 0; c < expected.schema().num_attributes(); ++c) {
    if (expected.schema().attribute(c).type !=
        actual.schema().attribute(c).type) {
      return Status::Internal("attribute type differs at column " +
                              std::to_string(c));
    }
  }
  if (expected.num_rows() != actual.num_rows()) {
    return Status::Internal(expected.name() + ": " +
                            std::to_string(actual.num_rows()) + " rows, " +
                            std::to_string(expected.num_rows()) + " expected");
  }
  for (size_t r = 0; r < expected.num_rows(); ++r) {
    for (size_t c = 0; c < expected.schema().num_attributes(); ++c) {
      const Value e = expected.ValueAt(r, c);
      const Value a = actual.ValueAt(r, c);
      const bool same =
          e.type() == a.type() &&
          (e.type() != ValueType::kReal || SameBits(e.AsReal(), a.AsReal())) &&
          (e.type() == ValueType::kReal || e == a);
      if (!same) {
        return Status::Internal(expected.name() + " cell (" +
                                std::to_string(r) + ", " + std::to_string(c) +
                                ") is '" + a.ToString() + "', expected '" +
                                e.ToString() + "'");
      }
    }
  }
  if (TableToCsv(actual) != TableToCsv(expected)) {
    return Status::Internal(expected.name() + ": TableToCsv bytes differ");
  }
  if (!dictionaries) return Status::Ok();
  for (size_t c = 0; c < expected.schema().num_attributes(); ++c) {
    const Column& e = expected.column(c);
    const Column& a = actual.column(c);
    if (e.type() != ValueType::kString) continue;
    if (e.codes() != a.codes() ||
        e.dictionary().values() != a.dictionary().values()) {
      return Status::Internal(expected.name() + ": dictionary of column " +
                              std::to_string(c) + " differs");
    }
  }
  return Status::Ok();
}

Status SameStatus(const Status& expected, const Status& actual) {
  if (expected.code() != actual.code() ||
      expected.message() != actual.message()) {
    return Status::Internal("status '" + actual.ToString() + "', expected '" +
                            expected.ToString() + "'");
  }
  return Status::Ok();
}

Status CheckExecutorEquivalence(const MappingInput& in) {
  for (const MappingQuery& query : in.queries) {
    const TableSchema& target = in.target.GetTable(query.target_table);
    const StatusOr<Table> expected =
        ReferenceExecuteMapping(query, in.source, in.views, target);
    const StatusOr<Table> actual =
        ExecuteMapping(query, in.source, in.views, target);
    CSM_RETURN_IF_ERROR(SameStatus(expected.status(), actual.status()));
    if (!expected.ok()) continue;
    Status same = CompareExact(*expected, *actual, /*dictionaries=*/false);
    if (!same.ok()) {
      return Status::Internal("ExecuteMapping diverged: " + same.message() +
                              "\n" + query.ToSql(in.views));
    }
  }
  const StatusOr<Database> expected =
      ReferenceExecuteMappings(in.queries, in.source, in.views, in.target);
  const StatusOr<Database> actual =
      ExecuteMappings(in.queries, in.source, in.views, in.target);
  CSM_RETURN_IF_ERROR(SameStatus(expected.status(), actual.status()));
  if (!expected.ok()) return Status::Ok();
  for (const Table& table : expected->tables()) {
    Status same = CompareExact(table, actual->GetTable(table.name()),
                               /*dictionaries=*/true);
    if (!same.ok()) {
      return Status::Internal("ExecuteMappings diverged: " + same.message());
    }
  }
  return Status::Ok();
}

}  // namespace

Status FuzzExecutorEquivalence(const FuzzOptions& options) {
  for (size_t i = 0; i < options.iterations; ++i) {
    Rng rng(IterationSeed(options.seed, i));
    const MappingInput input = RandomMappingInput(rng);
    const Status status = CheckExecutorEquivalence(input);
    if (!status.ok()) {
      return Status(status.code(), "replay: seed=" +
                                       std::to_string(options.seed) +
                                       " iteration=" + std::to_string(i) +
                                       "; " + status.message());
    }
  }
  return Status::Ok();
}

}  // namespace csm::check
