#include "relational/value.h"

#include <charconv>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/string_util.h"

namespace csm {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

const char* ValueTypeToString(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "null";
    case ValueType::kInt:
      return "int";
    case ValueType::kReal:
      return "real";
    case ValueType::kString:
      return "string";
  }
  return "unknown";
}

ValueType Value::type() const {
  switch (rep_.index()) {
    case 0:
      return ValueType::kNull;
    case 1:
      return ValueType::kInt;
    case 2:
      return ValueType::kReal;
    default:
      return ValueType::kString;
  }
}

int64_t Value::AsInt() const {
  CSM_CHECK(std::holds_alternative<int64_t>(rep_)) << "not an int";
  return std::get<int64_t>(rep_);
}

double Value::AsReal() const {
  CSM_CHECK(std::holds_alternative<double>(rep_)) << "not a real";
  return std::get<double>(rep_);
}

const std::string& Value::AsString() const {
  CSM_CHECK(std::holds_alternative<std::string>(rep_)) << "not a string";
  return std::get<std::string>(rep_);
}

double Value::AsNumeric() const {
  if (std::holds_alternative<int64_t>(rep_)) {
    return static_cast<double>(std::get<int64_t>(rep_));
  }
  CSM_CHECK(std::holds_alternative<double>(rep_)) << "not numeric";
  return std::get<double>(rep_);
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "";
    case ValueType::kInt:
      return std::to_string(std::get<int64_t>(rep_));
    case ValueType::kReal:
      return std::string(RenderReal(std::get<double>(rep_)).view());
    case ValueType::kString:
      return std::get<std::string>(rep_);
  }
  return "";
}

StatusOr<Value> Value::Parse(std::string_view text, ValueType type) {
  std::string_view trimmed = Trim(text);
  if (trimmed.empty()) return Value::Null();
  switch (type) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kInt: {
      int64_t out = 0;
      auto [ptr, ec] =
          std::from_chars(trimmed.data(), trimmed.data() + trimmed.size(), out);
      if (ec != std::errc() || ptr != trimmed.data() + trimmed.size()) {
        return Status::InvalidArgument("cannot parse int: '" +
                                       std::string(trimmed) + "'");
      }
      return Value::Int(out);
    }
    case ValueType::kReal: {
      // std::from_chars for double is available in GCC 12.
      double out = 0;
      auto [ptr, ec] =
          std::from_chars(trimmed.data(), trimmed.data() + trimmed.size(), out);
      if (ec != std::errc() || ptr != trimmed.data() + trimmed.size()) {
        return Status::InvalidArgument("cannot parse real: '" +
                                       std::string(trimmed) + "'");
      }
      return Value::Real(out);
    }
    case ValueType::kString:
      return Value::String(std::string(text));
  }
  return Status::InvalidArgument("unknown value type");
}

bool operator==(const Value& a, const Value& b) {
  const double* da = std::get_if<double>(&a.rep_);
  const double* db = std::get_if<double>(&b.rep_);
  return a.rep_ == b.rep_ || (da && db && std::isnan(*da) && std::isnan(*db));
}

bool operator<(const Value& a, const Value& b) {
  const ValueType ta = a.type();
  const ValueType tb = b.type();
  // NULL sorts first.
  if (ta == ValueType::kNull || tb == ValueType::kNull) {
    return ta == ValueType::kNull && tb != ValueType::kNull;
  }
  const bool na = a.IsNumeric();
  const bool nb = b.IsNumeric();
  if (na && nb) {
    // Ints compare exactly: above 2^53 two ints can widen to one double.
    if (ta == ValueType::kInt && tb == ValueType::kInt) {
      return a.AsInt() < b.AsInt();
    }
    const double da = a.AsNumeric();
    const double db = b.AsNumeric();
    if (std::isnan(db)) return !std::isnan(da);  // one NaN, after +inf
    if (std::isnan(da)) return false;
    if (da != db) return da < db;
    // Numerically equal but maybe different types: int < real for stability.
    return ta < tb;
  }
  if (na != nb) return na;  // numerics before strings
  return a.AsString() < b.AsString();
}

size_t Value::Hash() const {
  switch (type()) {
    case ValueType::kNull:
      return 0x9e3779b97f4a7c15ULL;
    case ValueType::kInt:
      return std::hash<int64_t>{}(std::get<int64_t>(rep_)) * 3 + 1;
    case ValueType::kReal: {
      // std::hash<double> hashes both zeros alike but NaNs by their bits.
      const double d = std::get<double>(rep_);
      return std::hash<double>{}(std::isnan(d) ? kNaN : d) * 3 + 2;
    }
    case ValueType::kString:
      return std::hash<std::string>{}(std::get<std::string>(rep_)) * 3;
  }
  return 0;
}

std::ostream& operator<<(std::ostream& os, const Value& value) {
  if (value.is_null()) return os << "NULL";
  return os << value.ToString();
}

RealRendering RenderReal(double d) {
  RealRendering out;
  char* const end = out.data + sizeof(out.data);
  // Render integral doubles without a trailing ".000000".
  const bool integral =
      std::isfinite(d) && d == std::floor(d) && std::abs(d) < 1e15;
  const std::to_chars_result r =
      integral ? std::to_chars(out.data, end, d, std::chars_format::fixed, 1)
               : std::to_chars(out.data, end, d, std::chars_format::general, 6);
  CSM_CHECK(r.ec == std::errc()) << "real rendering overflowed its buffer";
  out.size = static_cast<size_t>(r.ptr - out.data);
  return out;
}

void AppendValueKey(const Value& v, std::string* out) {
  const std::string rendering = v.ToString();
  out->append(std::to_string(static_cast<int>(v.type())));
  out->push_back(':');
  out->append(std::to_string(rendering.size()));
  out->push_back(':');
  out->append(rendering);
}

}  // namespace csm
