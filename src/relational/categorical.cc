#include "relational/categorical.h"

namespace csm {

bool IsCategoricalAttribute(const TableView& instance,
                            std::string_view attribute,
                            const CategoricalOptions& options) {
  // The paper's fixed thresholds: 10% of the values, and 2 values of 2
  // tuples each for small samples.
  constexpr double kValueFraction = 0.10;
  constexpr size_t kMinFrequentValues = 2;
  constexpr size_t kMinTuplesPerValue = 2;
  const std::map<Value, size_t> counts = instance.ValueCounts(attribute);
  if (counts.empty()) return false;

  size_t total_tuples = 0;
  for (const auto& [value, count] : counts) total_tuples += count;
  if (total_tuples == 0) return false;

  // Main rule: more than kValueFraction of the distinct values must each
  // cover more than `tuple_fraction` of the tuples.
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

  // Small-sample guard (always applied; for large samples it is implied in
  // practice): at least kMinFrequentValues values each associated with at
  // least kMinTuplesPerValue tuples.
  return values_with_min_tuples >= kMinFrequentValues;
}

std::vector<std::string> CategoricalAttributes(
    const TableView& instance, const CategoricalOptions& options) {
  std::vector<std::string> out;
  for (const auto& attr : instance.schema().attributes()) {
    if (IsCategoricalAttribute(instance, attr.name, options)) {
      out.push_back(attr.name);
    }
  }
  return out;
}

std::vector<std::string> NonCategoricalAttributes(
    const TableView& instance, const CategoricalOptions& options) {
  std::vector<std::string> out;
  for (const auto& attr : instance.schema().attributes()) {
    if (!IsCategoricalAttribute(instance, attr.name, options)) {
      out.push_back(attr.name);
    }
  }
  return out;
}

}  // namespace csm
