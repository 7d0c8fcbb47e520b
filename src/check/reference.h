// Row-at-a-time and string-keyed reference implementations of production
// paths.
//
// Each function here is the implementation a production path replaced,
// kept only so a differential fuzzer (fuzz.h) can diff the production path
// against it: the mapping executor that boxed every joined row into Values
// and keyed joins and duplicate rows on rendered strings, the CSV writer
// that boxed every cell with ValueAt, the CSV reader that split each
// record into std::string fields and boxed every cell with Value::Parse,
// and the escaped group tokens that once labelled ClusteredViewGen's
// classifiers and keyed its family dedup.  Nothing in the product links
// them.

#ifndef CSM_CHECK_REFERENCE_H_
#define CSM_CHECK_REFERENCE_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "mapping/query_gen.h"
#include "relational/table.h"
#include "relational/view.h"

namespace csm::check {

/// ExecuteMapping (mapping/executor.h) row at a time: materialize every
/// relation, full-outer-join boxed rows on length-prefixed key renderings,
/// project and coerce cell by cell, collapse duplicates on row encodings.
StatusOr<Table> ReferenceExecuteMapping(const MappingQuery& query,
                                        const Database& source,
                                        const std::vector<View>& views,
                                        const TableSchema& target_schema);

/// ExecuteMappings over ReferenceExecuteMapping.
StatusOr<Database> ReferenceExecuteMappings(
    const std::vector<MappingQuery>& queries, const Database& source,
    const std::vector<View>& views, const Schema& target_schema);

/// TableFromCsvParallel (relational/csv.h) in one serial pass: each record
/// split character by character into std::string fields, each cell boxed
/// by Value::Parse and appended with Table::AddRow.  Same statuses and
/// messages, cells and dictionary codes.
StatusOr<Table> ReferenceTableFromCsv(const TableSchema& schema,
                                      std::string_view csv);

/// TableToCsv (relational/csv.h) through ValueAt(...).ToString() per cell.
std::string ReferenceTableToCsv(const Table& instance);

/// The boxed writer's quoting of one field: wrapped in quotes, embedded
/// quotes doubled, when it holds a comma, a quote, CR or LF.
std::string ReferenceQuoteField(const std::string& field);

/// Canonical token of a group of label values: member renderings joined by
/// '\x1f', each byte '\x1b'..'\x1f' inside a rendering prefixed by '\x1b'.
/// The escape makes the token injective, so no label value can forge a join
/// (or a FamilyPartitionKey separator) and two groups never share a token;
/// renderings without those bytes appear verbatim.
std::string GroupToken(const std::vector<Value>& members);

/// Dedup key of a family: its label attribute plus the partition its views'
/// conditions induce (one GroupToken per view, sorted).
std::string FamilyPartitionKey(const ViewFamily& family);

}  // namespace csm::check

#endif  // CSM_CHECK_REFERENCE_H_
