// Selection conditions for contextual matches (Section 2.2 of the paper).
//
// The paper's condition language is: "true", simple 1-conditions (a = v),
// simple disjunctive conditions (a IN {v1..vk}), and conjunctions of those
// over distinct attributes (k-conditions).  Condition models exactly that
// language as a conjunction of IN-clauses; the empty conjunction is "true".

#ifndef CSM_RELATIONAL_CONDITION_H_
#define CSM_RELATIONAL_CONDITION_H_

#include <string>
#include <vector>

#include "relational/schema.h"
#include "relational/table.h"
#include "relational/table_view.h"
#include "relational/value.h"

namespace csm {

/// One conjunct: `attribute IN values` (a simple condition when
/// values.size() == 1, a simple-disjunctive condition otherwise).
/// `values` is kept sorted and deduplicated.
struct ConditionClause {
  std::string attribute;
  std::vector<Value> values;

  /// Normalizes `values` (sort + dedup).
  void Normalize();

  /// True iff `v` is one of `values`.
  bool Matches(const Value& v) const;

  /// "a = v" or "a in {v1, v2}"; string literals are single-quoted with
  /// embedded quotes doubled ('it''s').  A display rendering, not an
  /// identity: distinct clauses can render alike (see the definition).
  std::string ToString() const;

  friend bool operator==(const ConditionClause& a, const ConditionClause& b) {
    return a.attribute == b.attribute && a.values == b.values;
  }
  /// By attribute name, then the values under Value's order.
  friend bool operator<(const ConditionClause& a, const ConditionClause& b) {
    if (a.attribute != b.attribute) return a.attribute < b.attribute;
    return a.values < b.values;
  }
};

/// A conjunction of clauses over distinct attributes; the empty conjunction
/// is the constant "true" (a standard, non-contextual match).
class Condition {
 public:
  /// The constant "true".
  Condition() = default;

  /// Simple condition `attribute = value`.
  static Condition Equals(std::string attribute, Value value);

  /// Simple disjunctive condition `attribute IN values`.
  static Condition In(std::string attribute, std::vector<Value> values);

  /// The constant "true".
  static Condition True() { return Condition(); }

  bool is_true() const { return clauses_.empty(); }

  const std::vector<ConditionClause>& clauses() const { return clauses_; }

  /// Number of distinct attributes mentioned (the paper's "k" in
  /// k-condition); 0 for "true".
  size_t NumAttributes() const { return clauses_.size(); }

  /// True iff some clause mentions `attribute`.
  bool MentionsAttribute(std::string_view attribute) const;

  /// Attributes mentioned, in clause order.
  std::vector<std::string> MentionedAttributes() const;

  /// Adds a conjunct; CHECK-fails if `attribute` is already mentioned
  /// (the paper's k-conditions mention k *distinct* attributes).
  void AddClause(std::string attribute, std::vector<Value> values);

  /// Returns this AND other; CHECK-fails on shared attributes.
  Condition Conjoin(const Condition& other) const;

  /// Evaluates the condition against a row of `schema`.  NULL cells never
  /// match.  CHECK-fails if a mentioned attribute is absent from `schema`.
  bool Evaluate(const TableSchema& schema, const Row& row) const;

  /// Row positions of `instance` satisfying the condition, in ascending
  /// order — the columnar equivalent of evaluating every row.  Clause
  /// literals are translated once per scan (string literals to dictionary
  /// codes, numeric literals to typed sets), so the per-row work is an
  /// integer comparison.  Matches Evaluate() cell for cell: NULL never
  /// matches and a literal of a different type than the column cannot match.
  /// CHECK-fails if a mentioned attribute is absent from the schema.
  PosList MatchingPositions(const Table& instance) const;

  /// The same scan over the rows of `view`: the result indexes *view* rows
  /// (feed it to TableView::Select), and attributes resolve against the
  /// view's schema.
  PosList MatchingPositions(const TableView& view) const;

  /// SQL-ish rendering: "true", "type = 1", "type in {1, 3} and fiction = 0".
  std::string ToString() const;

  friend bool operator==(const Condition& a, const Condition& b) {
    return a.clauses_ == b.clauses_;
  }
  /// Clause by clause; a condition orders before its own extensions.
  friend bool operator<(const Condition& a, const Condition& b) {
    return a.clauses_ < b.clauses_;
  }

 private:
  std::vector<ConditionClause> clauses_;
};

}  // namespace csm

#endif  // CSM_RELATIONAL_CONDITION_H_
