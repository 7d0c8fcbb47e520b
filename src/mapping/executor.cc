#include "mapping/executor.h"

#include <cstring>
#include <map>
#include <unordered_map>

#include "common/logging.h"
#include "relational/table_view.h"

namespace csm {
namespace {

/// One relation of a join result: its bound view and, per joined row, the
/// base row that feeds it (kNullRow where the outer join padded it).
struct JoinedRelation {
  std::string name;
  TableView view;
  PosList rows;
};

/// A full outer join as one position list per joined relation; no cell is
/// copied until the projection gathers it.
struct JoinResult {
  std::vector<JoinedRelation> relations;
  size_t num_rows = 0;

  std::optional<size_t> Find(const std::string& name) const {
    for (size_t i = 0; i < relations.size(); ++i) {
      if (relations[i].name == name) return i;
    }
    return std::nullopt;
  }
};

/// splitmix64's finalizer: spreads small atoms (codes, ids) over 64 bits.
uint64_t Mix64(uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Dense ids of real renderings: two reals share an id iff RenderReal
/// renders them the same, so 0.1+0.2 and 0.3 do while -0.0 and 0.0 do not.
/// Each distinct bit pattern renders once.
class RealRenderingIds {
 public:
  uint32_t Id(double d) {
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    auto [it, inserted] = by_bits_.try_emplace(bits, 0);
    if (inserted) {
      const uint32_t next = static_cast<uint32_t>(by_rendering_.size());
      it->second =
          by_rendering_.try_emplace(std::string(RenderReal(d).view()), next)
              .first->second;
    }
    return it->second;
  }

 private:
  std::unordered_map<uint64_t, uint32_t> by_bits_;
  std::unordered_map<std::string, uint32_t> by_rendering_;
};

/// The atom of cell `p` of `col`, or false when the cell is NULL.  Within
/// one column (and between two columns of one type, one string dictionary
/// and one `reals`), atoms are equal iff the cells' (type, rendering) are:
/// an int is its value, a string its dictionary code, a real the id of
/// its rendering.
bool CellAtom(const Column& col, RowId p, RealRenderingIds& reals,
              uint64_t* atom) {
  if (col.IsNull(p)) return false;
  switch (col.type()) {
    case ValueType::kNull:
      return false;
    case ValueType::kInt:
      *atom = static_cast<uint64_t>(col.ints()[p]);
      return true;
    case ValueType::kReal:
      *atom = reals.Id(col.reals()[p]);
      return true;
    case ValueType::kString:
      *atom = col.codes()[p];
      return true;
  }
  return false;
}

/// Maps the non-NULL cells of a probe and a build key column of one type
/// into one space of 64-bit atoms: equal atoms iff equal (type, rendering).
/// Strings compare dictionary codes; a probe column with another
/// dictionary is remapped into the build one once per distinct string.
class KeyAtoms {
 public:
  KeyAtoms(const Column& probe, const Column& build)
      : probe_(probe), build_(build) {
    if (probe.type() == ValueType::kString &&
        build.type() == ValueType::kString &&
        &probe.dictionary() != &build.dictionary()) {
      remap_.assign(probe.dictionary().size(), kUnmapped);
    }
  }

  /// False for a NULL cell (NULLs never join).
  bool Build(RowId p, uint64_t* atom) {
    return CellAtom(build_, p, reals_, atom);
  }

  /// False for a padded row, a NULL cell, or a string the build column
  /// never holds.
  bool Probe(RowId p, uint64_t* atom) {
    if (p == kNullRow || !CellAtom(probe_, p, reals_, atom)) return false;
    if (remap_.empty()) return true;
    int64_t& code = remap_[*atom];
    if (code == kUnmapped) {
      const std::optional<uint32_t> found =
          build_.CodeFor(probe_.dictionary().values()[*atom]);
      code = found.has_value() ? *found : kAbsent;
    }
    if (code == kAbsent) return false;
    *atom = static_cast<uint64_t>(code);
    return true;
  }

 private:
  static constexpr int64_t kUnmapped = -1;
  static constexpr int64_t kAbsent = -2;

  const Column& probe_;
  const Column& build_;
  std::vector<int64_t> remap_;  // probe code -> build code (lazy)
  RealRenderingIds reals_;
};

struct GroupKeyHash {
  size_t operator()(const std::pair<uint32_t, uint64_t>& k) const {
    return static_cast<size_t>(Mix64(k.second ^ Mix64(k.first)));
  }
};

constexpr uint32_t kNoGroup = 0xffffffffu;

/// One key attribute's level of the join index: interns (group of the key
/// prefix, atom of this attribute) into the dense group of the longer
/// prefix.  The first level of a string key has no prefix and its atoms are
/// build-dictionary codes, so it indexes a vector instead of hashing.
class GroupLevel {
 public:
  /// `dense_atoms` > 0 selects the vector for atoms below it.
  explicit GroupLevel(size_t dense_atoms) : dense_(dense_atoms, kNoGroup) {}

  uint32_t Intern(uint32_t prefix, uint64_t atom) {
    if (!dense_.empty()) {
      uint32_t& group = dense_[atom];
      if (group == kNoGroup) group = size_++;
      return group;
    }
    auto [it, inserted] = hashed_.try_emplace({prefix, atom}, size_);
    if (inserted) ++size_;
    return it->second;
  }

  /// The group, or kNoGroup when no build row has this key prefix.
  uint32_t Find(uint32_t prefix, uint64_t atom) const {
    if (!dense_.empty()) return dense_[atom];
    auto it = hashed_.find({prefix, atom});
    return it == hashed_.end() ? kNoGroup : it->second;
  }

  size_t size() const { return size_; }

 private:
  std::vector<uint32_t> dense_;
  std::unordered_map<std::pair<uint32_t, uint64_t>, uint32_t, GroupKeyHash>
      hashed_;
  uint32_t size_ = 0;
};

/// Full outer join of `joined` with `incoming` on equal (type, rendering)
/// of the key cells: probe_keys[i] (of joined.relations[probe]) against
/// build_keys[i] (of `incoming`).  Rows come out as the row executor
/// emitted them: each joined row with its partners in incoming order (or
/// NULL-padded), then the unmatched incoming rows.
JoinResult FullOuterJoin(JoinResult joined, size_t probe,
                         const std::vector<size_t>& probe_keys,
                         const std::string& incoming_name,
                         const TableView& incoming,
                         const std::vector<size_t>& build_keys) {
  const JoinedRelation& probe_relation = joined.relations[probe];
  const size_t num_keys = probe_keys.size();
  const size_t build_rows = incoming.num_rows();
  std::vector<KeyAtoms> atoms;
  atoms.reserve(num_keys);
  bool joinable = true;
  for (size_t k = 0; k < num_keys; ++k) {
    const Column& probe_col = probe_relation.view.column(probe_keys[k]);
    const Column& build_col = incoming.column(build_keys[k]);
    // Cells of different types never have equal (type, rendering).
    if (probe_col.type() != build_col.type()) joinable = false;
    atoms.emplace_back(probe_col, build_col);
  }

  // Build: a dense group per distinct key, its rows in incoming order.
  std::vector<GroupLevel> index;
  index.reserve(num_keys);
  for (size_t k = 0; k < num_keys; ++k) {
    const Column& build_col = incoming.column(build_keys[k]);
    const bool dense = k == 0 && joinable &&
                       build_col.type() == ValueType::kString;
    index.emplace_back(dense ? build_col.dictionary().size() : 0);
  }
  std::vector<uint32_t> group_of(build_rows, kNoGroup);
  for (size_t r = 0; joinable && r < build_rows; ++r) {
    const RowId p = incoming.position(r);
    uint32_t group = 0;
    uint64_t atom = 0;
    size_t k = 0;
    for (; k < num_keys && atoms[k].Build(p, &atom); ++k) {
      group = index[k].Intern(group, atom);
    }
    if (k == num_keys) group_of[r] = group;
  }
  const size_t num_groups = num_keys == 0 ? 1 : index.back().size();
  std::vector<uint32_t> group_begin(num_groups + 1, 0);
  for (uint32_t group : group_of) {
    if (group != kNoGroup) ++group_begin[group + 1];
  }
  for (size_t g = 0; g < num_groups; ++g) group_begin[g + 1] += group_begin[g];
  std::vector<uint32_t> group_rows(group_begin.back());
  {
    std::vector<uint32_t> fill(group_begin.begin(), group_begin.end() - 1);
    for (size_t r = 0; r < build_rows; ++r) {
      if (group_of[r] != kNoGroup) {
        group_rows[fill[group_of[r]]++] = static_cast<uint32_t>(r);
      }
    }
  }

  // Probe in joined-row order.
  PosList left, right;  // joined row / incoming view row per output row
  left.reserve(joined.num_rows);
  right.reserve(joined.num_rows);
  std::vector<uint8_t> matched(build_rows, 0);
  for (size_t j = 0; j < joined.num_rows; ++j) {
    const RowId p = probe_relation.rows[j];
    uint32_t group = 0;
    bool found = joinable;
    for (size_t k = 0; found && k < num_keys; ++k) {
      uint64_t atom = 0;
      found = atoms[k].Probe(p, &atom);
      if (!found) break;
      group = index[k].Find(group, atom);
      found = group != kNoGroup;
    }
    const uint32_t begin = found ? group_begin[group] : 0;
    const uint32_t end = found ? group_begin[group + 1] : 0;
    if (begin == end) {
      left.push_back(static_cast<RowId>(j));
      right.push_back(kNullRow);
      continue;
    }
    for (uint32_t i = begin; i < end; ++i) {
      matched[group_rows[i]] = 1;
      left.push_back(static_cast<RowId>(j));
      right.push_back(group_rows[i]);
    }
  }
  for (size_t r = 0; r < build_rows; ++r) {
    if (matched[r]) continue;
    left.push_back(kNullRow);
    right.push_back(static_cast<RowId>(r));
  }
  CSM_CHECK_LT(left.size(), static_cast<size_t>(kNullRow))
      << "join of '" << incoming_name << "' exceeds the row capacity";

  // Compose: every joined relation follows its row through `left`.
  JoinResult out;
  out.num_rows = left.size();
  for (JoinedRelation& relation : joined.relations) {
    PosList rows(left.size());
    for (size_t i = 0; i < left.size(); ++i) {
      rows[i] = left[i] == kNullRow ? kNullRow : relation.rows[left[i]];
    }
    out.relations.push_back(
        {std::move(relation.name), std::move(relation.view), std::move(rows)});
  }
  PosList rows(right.size());
  for (size_t i = 0; i < right.size(); ++i) {
    rows[i] = right[i] == kNullRow ? kNullRow : incoming.position(right[i]);
  }
  out.relations.push_back({incoming_name, incoming, std::move(rows)});
  return out;
}

/// A mapped source column: its segment and, per joined row, the segment
/// position to read (kNullRow = NULL).
struct SourceColumn {
  const PosList* rows = nullptr;
  const Column* column = nullptr;
};

bool IsNullCell(const Column& col, RowId p) {
  return p == kNullRow || col.IsNull(p);
}

/// The int a real coerces to: its value when integral and inside int64's
/// range, else nullopt (NULL).  The range test comes first because casting
/// a NaN or out-of-range double to an integer is undefined behavior.
std::optional<int64_t> RealToInt(double d) {
  // [-2^63, 2^63); both bounds are exact doubles.
  if (!(d >= -9223372036854775808.0 && d < 9223372036854775808.0)) {
    return std::nullopt;
  }
  const int64_t i = static_cast<int64_t>(d);
  if (static_cast<double>(i) != d) return std::nullopt;
  return i;
}

/// The target column of `type` that `source` projects to, with one
/// coercion rule for the whole column: a same-typed source gathers
/// (strings keep the source dictionary), ints and reals render into
/// strings, ints widen to reals, integral reals narrow to ints, and every
/// other pairing is all NULL.
Column ProjectColumn(const SourceColumn& source, ValueType type, size_t rows) {
  const Column* col = source.column;
  if (col != nullptr && col->type() == type) {
    return col->GatherPadded(*source.rows);
  }
  const ValueType from = col == nullptr ? ValueType::kNull : col->type();
  Column out(type);
  out.Reserve(rows);
  auto coerce_each = [&](auto append) {
    for (RowId p : *source.rows) {
      if (IsNullCell(*col, p)) {
        out.AppendNull();
      } else {
        append(p);
      }
    }
  };
  if (type == ValueType::kString &&
      (from == ValueType::kInt || from == ValueType::kReal)) {
    std::string rendering;
    coerce_each([&](RowId p) {
      rendering.clear();
      col->AppendRendering(p, &rendering);
      out.AppendString(rendering);
    });
  } else if (type == ValueType::kReal && from == ValueType::kInt) {
    coerce_each([&](RowId p) {
      out.Append(Value::Real(static_cast<double>(col->ints()[p])));
    });
  } else if (type == ValueType::kInt && from == ValueType::kReal) {
    coerce_each([&](RowId p) {
      const std::optional<int64_t> i = RealToInt(col->reals()[p]);
      out.Append(i.has_value() ? Value::Int(*i) : Value::Null());
    });
  } else {
    for (size_t j = 0; j < rows; ++j) out.AppendNull();
  }
  return out;
}

/// Skolem terms "sk_<table>_<attribute>(<args>)", where args joins the
/// renderings of the row's non-NULL mapped cells with ',' (a leading empty
/// string adds no comma, as in the row executor).
Column SkolemColumn(const std::string& prefix,
                    const std::vector<SourceColumn>& mapped, size_t rows) {
  Column out(ValueType::kString);
  out.Reserve(rows);
  std::string term;
  for (size_t j = 0; j < rows; ++j) {
    term.assign(prefix);
    const size_t args_begin = term.size();
    for (const SourceColumn& source : mapped) {
      const RowId p = (*source.rows)[j];
      if (IsNullCell(*source.column, p)) continue;
      if (term.size() > args_begin) term.push_back(',');
      source.column->AppendRendering(p, &term);
    }
    term.push_back(')');
    out.AppendString(term);
  }
  return out;
}

/// Rows of `columns` (all `rows` long) to keep when exact duplicates
/// collapse, the first occurrence surviving; cells are equal when their
/// (type, rendering) are.  Empty when every row is distinct.
PosList FirstOccurrences(const std::vector<Column>& columns, size_t rows) {
  const size_t width = columns.size();
  // Per cell an atom and a NULL flag: equal cells of one column have equal
  // pairs (codes share the column's dictionary, reals intern renderings).
  std::vector<uint64_t> atoms(rows * width, 0);
  std::vector<uint8_t> nulls(rows * width, 1);
  std::vector<uint64_t> hashes(rows, 0);
  for (size_t c = 0; c < width; ++c) {
    RealRenderingIds reals;
    for (size_t j = 0; j < rows; ++j) {
      uint64_t& atom = atoms[j * width + c];
      const bool null =
          !CellAtom(columns[c], static_cast<RowId>(j), reals, &atom);
      nulls[j * width + c] = null;
      hashes[j] = Mix64(hashes[j] ^ atom ^ (uint64_t{null} << 63));
    }
  }
  auto same_row = [&](size_t a, size_t b) {
    return std::memcmp(&atoms[a * width], &atoms[b * width],
                       width * sizeof(uint64_t)) == 0 &&
           std::memcmp(&nulls[a * width], &nulls[b * width], width) == 0;
  };

  size_t capacity = 16;
  while (capacity < 2 * rows) capacity *= 2;
  std::vector<uint32_t> slots(capacity, kNoGroup);
  PosList keep;
  keep.reserve(rows);
  for (size_t j = 0; j < rows; ++j) {
    for (size_t s = hashes[j] & (capacity - 1);; s = (s + 1) & (capacity - 1)) {
      const uint32_t other = slots[s];
      if (other == kNoGroup) {
        slots[s] = static_cast<uint32_t>(j);
        keep.push_back(static_cast<RowId>(j));
        break;
      }
      if (hashes[other] == hashes[j] && same_row(other, j)) break;
    }
  }
  if (keep.size() == rows) keep.clear();
  return keep;
}

}  // namespace

StatusOr<Table> ExecuteMapping(const MappingQuery& query,
                               const Database& source,
                               const std::vector<View>& views,
                               const TableSchema& target_schema) {
  if (query.logical.relations.empty()) {
    return Status::InvalidArgument("mapping query has no source relations");
  }

  // Bind every relation of the logical table (zero-copy).
  std::map<std::string, TableView> bound;
  for (const std::string& relation : query.logical.relations) {
    if (const Table* base = source.FindTable(relation)) {
      bound.emplace(relation, TableView(*base));
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
      bound.emplace(relation, view.Bind(*base));
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
  JoinResult joined;
  {
    const std::string& first = query.logical.relations[0];
    const TableView& view = bound.at(first);
    joined.num_rows = view.num_rows();
    joined.relations.push_back({first, view, view.Positions()});
  }
  std::vector<const JoinEdge*> pending;
  for (const JoinEdge& edge : query.logical.joins) pending.push_back(&edge);

  while (!pending.empty()) {
    bool progress = false;
    for (auto it = pending.begin(); it != pending.end(); ++it) {
      const JoinEdge& edge = **it;
      const bool left_in = joined.Find(edge.left).has_value();
      const bool right_in = joined.Find(edge.right).has_value();
      if (left_in == right_in) continue;  // both or neither: defer/skip

      const std::string& incoming_name = left_in ? edge.right : edge.left;
      TableView incoming = bound.at(incoming_name);
      // (join 3) filter on the referenced side.
      if (edge.filter_attribute.has_value() && incoming_name == edge.right &&
          incoming.schema().HasAttribute(*edge.filter_attribute)) {
        const Condition filter =
            Condition::Equals(*edge.filter_attribute, edge.filter_value);
        incoming = incoming.Select(filter.MatchingPositions(incoming));
      }

      const auto& joined_attrs =
          left_in ? edge.left_attributes : edge.right_attributes;
      const auto& incoming_attrs =
          left_in ? edge.right_attributes : edge.left_attributes;
      const size_t probe = *joined.Find(left_in ? edge.left : edge.right);

      std::vector<size_t> probe_keys, build_keys;
      for (size_t i = 0; i < joined_attrs.size(); ++i) {
        auto pk =
            joined.relations[probe].view.schema().FindAttribute(joined_attrs[i]);
        auto bk = incoming.schema().FindAttribute(incoming_attrs[i]);
        if (!pk.has_value() || !bk.has_value()) {
          return Status::Internal("join attribute missing: " +
                                  edge.ToString());
        }
        probe_keys.push_back(*pk);
        build_keys.push_back(*bk);
      }
      joined = FullOuterJoin(std::move(joined), probe, probe_keys,
                             incoming_name, incoming, build_keys);
      pending.erase(it);
      progress = true;
      break;
    }
    if (!progress) break;  // disconnected leftovers (shouldn't happen)
  }

  // Project into the target schema, one column per attribute mapping.  A
  // query that joins no rows reads none of its mappings.
  const size_t rows = joined.num_rows;
  if (rows == 0) return Table(target_schema);
  CSM_CHECK_EQ(query.attr_mappings.size(), target_schema.num_attributes())
      << "mapping arity mismatch for '" << target_schema.name() << "'";
  std::vector<SourceColumn> sources(query.attr_mappings.size());
  std::vector<SourceColumn> mapped;  // Skolem arguments, in mapping order
  for (size_t i = 0; i < query.attr_mappings.size(); ++i) {
    const TargetAttrMapping& m = query.attr_mappings[i];
    if (!m.source.has_value()) continue;
    const std::optional<size_t> relation = joined.Find(m.source->first);
    if (!relation.has_value()) continue;
    const JoinedRelation& r = joined.relations[*relation];
    auto col = r.view.schema().FindAttribute(m.source->second);
    if (!col.has_value()) continue;
    sources[i] = {&r.rows, &r.view.column(*col)};
    mapped.push_back(sources[i]);
  }
  std::vector<Column> columns;
  columns.reserve(query.attr_mappings.size());
  for (size_t i = 0; i < query.attr_mappings.size(); ++i) {
    const TargetAttrMapping& m = query.attr_mappings[i];
    const ValueType type =
        target_schema.attribute(target_schema.AttributeIndex(m.target_attribute))
            .type;
    if (!m.source.has_value() && m.skolem) {
      CSM_CHECK(type == ValueType::kString)
          << "Skolem term for non-string attribute '" << m.target_attribute
          << "'";
      columns.push_back(SkolemColumn(
          "sk_" + query.target_table + "_" + m.target_attribute + "(", mapped,
          rows));
    } else {
      columns.push_back(ProjectColumn(sources[i], type, rows));
    }
  }

  // Collapse exact duplicates.
  const PosList keep = FirstOccurrences(columns, rows);
  if (keep.empty()) {
    return Table::FromColumns(target_schema, std::move(columns), rows);
  }
  for (Column& col : columns) col = col.Gather(keep);
  return Table::FromColumns(target_schema, std::move(columns), keep.size());
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
      // Re-encodes strings in row order: each output dictionary holds the
      // strings its rows reference, in first-seen order.
      merged.AppendRowsFrom(part);
    }
    out.AddTable(std::move(merged));
  }
  return out;
}

}  // namespace csm
