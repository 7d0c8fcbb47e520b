// End-to-end schema mapping: ContextMatch output -> constraints -> logical
// tables -> executable mapping queries.  ClioQualTable (Section 5.7) is
// QualTable selection followed by this pipeline with the Section 4.3 join
// rules enabled.

#ifndef CSM_MAPPING_CLIO_H_
#define CSM_MAPPING_CLIO_H_

#include <vector>

#include "core/context_match.h"
#include "mapping/constraint_mining.h"
#include "mapping/executor.h"
#include "mapping/propagation.h"
#include "mapping/query_gen.h"

namespace csm {

/// Everything the mapping phase produced.
struct SchemaMappingResult {
  /// The views the matches originate from.
  std::vector<View> views;
  /// Declared + mined base constraints plus propagated/mined view
  /// constraints.
  ConstraintSet constraints;
  /// One query per (target table, logical table).
  std::vector<MappingQuery> queries;
  /// The matches the queries were generated from.
  MatchList matches;
};

/// Builds mapping queries from contextual matches.
///
/// `declared` carries any schema-declared constraints (may be empty); keys
/// and FKs are additionally mined from `source` samples, view constraints
/// are mined on materialized views and derived with the propagation rules,
/// and the join rules of Section 4.3 assemble the logical tables.
///
/// The mapping layer names relations by view name, and two selected views
/// can share one (reals that render alike).  So every repeated name is made
/// distinct first ("n#2", "n#3", ...); the result's `views` carry those
/// names, and queries must execute against them.
SchemaMappingResult BuildSchemaMapping(const Database& source,
                                       const Schema& target_schema,
                                       const MatchList& matches,
                                       const std::vector<View>& selected_views,
                                       const ConstraintSet& declared = {},
                                       const MiningOptions& mining = {});

/// ClioQualTable: ContextMatch with QualTable selection, then the full
/// mapping pipeline.
struct ClioQualTableResult {
  ContextMatchResult match_result;
  SchemaMappingResult mapping;
};

ClioQualTableResult ClioQualTable(const Database& source,
                                  const Database& target,
                                  const ContextMatchOptions& options);

}  // namespace csm

#endif  // CSM_MAPPING_CLIO_H_
