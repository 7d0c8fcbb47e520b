// Typed scalar values for the in-memory relational substrate.
//
// The paper's data model (Section 2.1) deals with attributes of basic types
// (string, int, real, ...).  Value is a tagged union over those basic types
// plus NULL; it provides the total ordering and hashing the relational
// operators and the grouping/classification machinery need.

#ifndef CSM_RELATIONAL_VALUE_H_
#define CSM_RELATIONAL_VALUE_H_

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <string_view>
#include <variant>

#include "common/status.h"

namespace csm {

/// Basic attribute types, per Section 2.1 of the paper.
enum class ValueType {
  kNull = 0,
  kInt = 1,
  kReal = 2,
  kString = 3,
};

/// Returns "null", "int", "real" or "string".
const char* ValueTypeToString(ValueType type);

/// A scalar cell value: NULL, 64-bit integer, double, or string.
///
/// Values order NULL < ints/reals (numerically, cross-type) < NaN < strings
/// (lexicographic), which gives a deterministic strict weak order usable as
/// a map key.  Equality is exact (an int never equals a real, so bags keyed
/// by Value stay type-stable), except that every NaN is one value and -0.0
/// equals 0.0; two values are equal exactly when neither orders first.
class Value {
 public:
  /// NULL value.
  Value() : rep_(std::monostate{}) {}
  explicit Value(int64_t v) : rep_(v) {}
  explicit Value(double v) : rep_(v) {}
  /// The lvalue overload copies straight into the variant — bulk boxing
  /// (Column::BoxAllTo) emplaces cells with exactly one string construction.
  explicit Value(const std::string& v) : rep_(v) {}
  explicit Value(std::string&& v) : rep_(std::move(v)) {}
  explicit Value(const char* v) : rep_(std::string(v)) {}

  static Value Null() { return Value(); }
  static Value Int(int64_t v) { return Value(v); }
  static Value Real(double v) { return Value(v); }
  static Value String(std::string v) { return Value(std::move(v)); }

  ValueType type() const;
  bool is_null() const { return type() == ValueType::kNull; }

  /// Accessors; CHECK-fail when the type does not match.
  int64_t AsInt() const;
  double AsReal() const;
  const std::string& AsString() const;

  /// Numeric view: ints widen to double; CHECK-fails on strings/NULL.
  double AsNumeric() const;
  bool IsNumeric() const {
    return type() == ValueType::kInt || type() == ValueType::kReal;
  }

  /// Renders the value for display and CSV output.  NULL renders as "".
  std::string ToString() const;

  /// Parses `text` as the given type.  Empty text parses as NULL.
  static StatusOr<Value> Parse(std::string_view text, ValueType type);

  /// Total order and equality described in the class comment.
  friend bool operator==(const Value& a, const Value& b);
  friend bool operator<(const Value& a, const Value& b);
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }
  friend bool operator>(const Value& a, const Value& b) { return b < a; }
  friend bool operator<=(const Value& a, const Value& b) { return !(b < a); }
  friend bool operator>=(const Value& a, const Value& b) { return !(a < b); }

  /// Hash consistent with operator== (every NaN hashes alike).
  size_t Hash() const;

 private:
  std::variant<std::monostate, int64_t, double, std::string> rep_;
};

std::ostream& operator<<(std::ostream& os, const Value& value);

/// The rendering of a real cell, held inline (no allocation).
struct RealRendering {
  char data[32];
  size_t size = 0;
  std::string_view view() const { return {data, size}; }
};

/// Value::ToString's rendering of the real `d`: "%.1f" for finite integral
/// values below 1e15 in magnitude, "%g" otherwise.  std::to_chars with
/// fixed/1 and general/6 is defined as printf-equivalent, so this is the
/// one rendering Value::ToString, the CSV writer and the mapping executor
/// share, without parsing a format string per cell.
RealRendering RenderReal(double d);

/// Appends the rendering of `v` as "<type>:<length>:<rendering>".  The
/// length prefix makes a sequence of encoded cells injective: bytes inside
/// a rendering (separators, digits, colons) can never shift the boundary
/// between two cells, so equal encodings mean equal (type, rendering)
/// sequences.  Constraint validation keys projections with it.
void AppendValueKey(const Value& v, std::string* out);

}  // namespace csm

#endif  // CSM_RELATIONAL_VALUE_H_
