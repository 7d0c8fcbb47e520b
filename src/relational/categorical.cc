#include "relational/categorical.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_map>

namespace csm {
namespace {

/// How many of `instance`'s rows hold each distinct non-null value of
/// string column `column`, in first-seen order: one pass over flat per-code
/// counters (the dictionary is injective, so a code is a value under
/// Value's equality), kept per thread, zero between calls and reset only at
/// the codes counted.
std::vector<size_t> DistinctCodeCounts(const TableView& instance,
                                       const Column& column) {
  thread_local std::vector<uint32_t> count;
  const size_t codes = column.dictionary().size();
  if (count.size() < codes) count.resize(codes, 0);
  std::vector<uint32_t> seen;
  for (size_t i = 0; i < instance.num_rows(); ++i) {
    const RowId p = instance.position(i);
    if (column.IsNull(p)) continue;
    const uint32_t code = column.codes()[p];
    if (count[code]++ == 0) seen.push_back(code);
  }
  std::vector<size_t> out;
  out.reserve(seen.size());
  for (uint32_t code : seen) {
    out.push_back(count[code]);
    count[code] = 0;
  }
  return out;
}

/// How many of `instance`'s rows hold each distinct non-null value of
/// column `col`, in no particular order.  Strings count by dictionary code
/// (DistinctCodeCounts); other columns in one hash pass, keyed by what
/// Value's equality compares: an int's exact value, and a real's bits with
/// every NaN one key and -0.0 folded into 0.0.
std::vector<size_t> DistinctValueCounts(const TableView& instance,
                                        size_t col) {
  const Column& column = instance.column(col);
  if (column.type() == ValueType::kString) {
    return DistinctCodeCounts(instance, column);
  }
  std::unordered_map<uint64_t, size_t> counts;
  auto count = [&](auto key_of) {
    for (size_t i = 0; i < instance.num_rows(); ++i) {
      const RowId p = instance.position(i);
      if (!column.IsNull(p)) ++counts[key_of(p)];
    }
  };
  switch (column.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt:
      count([&](RowId p) { return std::bit_cast<uint64_t>(column.ints()[p]); });
      break;
    case ValueType::kReal:
      count([&](RowId p) {
        const double d = column.reals()[p];
        if (std::isnan(d)) {
          return std::bit_cast<uint64_t>(
              std::numeric_limits<double>::quiet_NaN());
        }
        return std::bit_cast<uint64_t>(d == 0.0 ? 0.0 : d);
      });
      break;
    case ValueType::kString:  // counted by DistinctCodeCounts
      break;
  }
  std::vector<size_t> out;
  out.reserve(counts.size());
  for (const auto& [key, n] : counts) out.push_back(n);
  return out;
}

/// The rule over one attribute's distinct-value counts.
bool IsCategorical(const std::vector<size_t>& counts,
                   const CategoricalOptions& options) {
  // The paper's fixed thresholds: 10% of the values, and 2 values of 2
  // tuples each for small samples.
  constexpr double kValueFraction = 0.10;
  constexpr size_t kMinFrequentValues = 2;
  constexpr size_t kMinTuplesPerValue = 2;
  if (counts.empty()) return false;

  size_t total_tuples = 0;
  for (size_t count : counts) total_tuples += count;
  if (total_tuples == 0) return false;

  // Main rule: more than kValueFraction of the distinct values must each
  // cover more than `tuple_fraction` of the tuples.
  const double tuple_threshold =
      options.tuple_fraction * static_cast<double>(total_tuples);
  size_t frequent_values = 0;
  size_t values_with_min_tuples = 0;
  for (size_t count : counts) {
    if (static_cast<double>(count) > tuple_threshold) ++frequent_values;
    if (count >= kMinTuplesPerValue) ++values_with_min_tuples;
  }
  const double frequent_fraction = static_cast<double>(frequent_values) /
                                   static_cast<double>(counts.size());
  if (frequent_fraction <= kValueFraction) return false;

  // Small-sample guard (always applied; for large samples it is implied in
  // practice): at least kMinFrequentValues values each associated with at
  // least kMinTuplesPerValue tuples.
  return values_with_min_tuples >= kMinFrequentValues;
}

}  // namespace

bool IsCategoricalAttribute(const TableView& instance,
                            std::string_view attribute,
                            const CategoricalOptions& options) {
  return IsCategorical(
      DistinctValueCounts(instance,
                          instance.schema().AttributeIndex(attribute)),
      options);
}

CategoricalSplit SplitCategoricalAttributes(
    const TableView& instance, const CategoricalOptions& options) {
  CategoricalSplit split;
  const auto& attributes = instance.schema().attributes();
  for (size_t c = 0; c < attributes.size(); ++c) {
    (IsCategorical(DistinctValueCounts(instance, c), options)
         ? split.categorical
         : split.non_categorical)
        .push_back(attributes[c].name);
  }
  return split;
}

std::vector<std::string> CategoricalAttributes(
    const TableView& instance, const CategoricalOptions& options) {
  return SplitCategoricalAttributes(instance, options).categorical;
}

std::vector<std::string> NonCategoricalAttributes(
    const TableView& instance, const CategoricalOptions& options) {
  return SplitCategoricalAttributes(instance, options).non_categorical;
}

}  // namespace csm
