// Categorical-attribute detection, per Section 2.1 of the paper:
//
//   "we consider an attribute a to be categorical if more than 10% of the
//    values of a are associated with more than 1% of the tuples in our
//    sample.  In the case of small samples, at least two values must be
//    associated with at least two tuples."

#ifndef CSM_RELATIONAL_CATEGORICAL_H_
#define CSM_RELATIONAL_CATEGORICAL_H_

#include <string>
#include <vector>

#include "relational/table.h"
#include "relational/table_view.h"

namespace csm {

/// Tunable threshold for the categorical rule; the default follows the
/// paper.  The rule's other thresholds are fixed (categorical.cc).
struct CategoricalOptions {
  /// A value is "frequent" when it covers more than this fraction of the
  /// sample's tuples (paper: 1%).
  double tuple_fraction = 0.01;
};

/// Applies the rule to one attribute of `instance`.  Attributes with no
/// non-null values are never categorical.  Values are counted under
/// Value's equality (every NaN is one value, -0.0 equals 0.0; NULLs are
/// skipped) in one pass: strings by dictionary code in flat per-thread
/// counters, other types in a hash table.  Accepts a zero-copy TableView;
/// a Table converts implicitly (identity view).
bool IsCategoricalAttribute(const TableView& instance,
                            std::string_view attribute,
                            const CategoricalOptions& options = {});

/// Every attribute of `instance` on its side of the rule, each in schema
/// order: one pass decides both Cat(R) and the h candidates.
struct CategoricalSplit {
  std::vector<std::string> categorical;
  std::vector<std::string> non_categorical;
};
CategoricalSplit SplitCategoricalAttributes(
    const TableView& instance, const CategoricalOptions& options = {});

/// Cat(R): names of the categorical attributes of `instance`, in schema
/// order.
std::vector<std::string> CategoricalAttributes(
    const TableView& instance, const CategoricalOptions& options = {});

/// Names of non-categorical attributes (the h candidates of
/// ClusteredViewGen), in schema order.
std::vector<std::string> NonCategoricalAttributes(
    const TableView& instance, const CategoricalOptions& options = {});

}  // namespace csm

#endif  // CSM_RELATIONAL_CATEGORICAL_H_
