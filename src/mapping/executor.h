// Execution of mapping queries on source instances, so a generated mapping
// can be *run*: bind the logical table's relations (views included) as
// zero-copy TableViews, full-outer-join them along the derived join edges
// with hash joins that emit one position list per relation, then project
// into the target schema by gathering columns, generating Skolem terms for
// uncovered string attributes (DESIGN.md "Columnar mapping executor").
//
// Cells compare by (type, rendering): NULL join keys never join, reals
// match and collapse when their Value::ToString renderings are equal
// (0.1+0.2 and 0.3 do; -0.0 and 0.0 do not), and of duplicate output rows
// the first survives.

#ifndef CSM_MAPPING_EXECUTOR_H_
#define CSM_MAPPING_EXECUTOR_H_

#include <vector>

#include "common/status.h"
#include "mapping/query_gen.h"
#include "relational/table.h"
#include "relational/view.h"

namespace csm {

/// Executes one mapping query.  `views` must define every view relation the
/// query mentions; `target_schema` is the schema of the target table being
/// populated.  Exact duplicate output rows are collapsed.  String columns
/// copied from a source attribute share its dictionary.
StatusOr<Table> ExecuteMapping(const MappingQuery& query,
                               const Database& source,
                               const std::vector<View>& views,
                               const TableSchema& target_schema);

/// Executes a batch of mapping queries, unioning the results per target
/// table.  Tables of `target_schema` with no queries come back empty.  Each
/// output dictionary holds just the strings its rows reference, in
/// first-seen row order.
StatusOr<Database> ExecuteMappings(const std::vector<MappingQuery>& queries,
                                   const Database& source,
                                   const std::vector<View>& views,
                                   const Schema& target_schema);

}  // namespace csm

#endif  // CSM_MAPPING_EXECUTOR_H_
