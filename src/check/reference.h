// Row-at-a-time reference implementations of columnar production paths.
//
// Each function here is the boxed implementation a columnar path replaced,
// kept only so a differential fuzzer (fuzz.h) can diff the production path
// against it: the mapping executor that boxed every joined row into Values
// and keyed joins and duplicate rows on rendered strings, the CSV writer
// that boxed every cell with ValueAt, and the CSV reader that split each
// record into std::string fields and boxed every cell with Value::Parse.
// Nothing in the product links them.

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

}  // namespace csm::check

#endif  // CSM_CHECK_REFERENCE_H_
