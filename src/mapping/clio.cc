#include "mapping/clio.h"

#include "core/match_engine.h"

namespace csm {

SchemaMappingResult BuildSchemaMapping(const Database& source,
                                       const Schema& target_schema,
                                       const MatchList& matches,
                                       const std::vector<View>& selected_views,
                                       const ConstraintSet& declared,
                                       const MiningOptions& mining) {
  SchemaMappingResult result;
  result.views = selected_views;
  result.matches = matches;

  // Declared constraints + mined base constraints.
  result.constraints = declared;
  result.constraints.Merge(MineConstraints(source, mining));

  // Method (a): mine keys directly on view instances (zero-copy PosList
  // views over the base table; nothing is materialized).
  for (const View& view : selected_views) {
    const Table* base = source.FindTable(view.base_table());
    if (base == nullptr) continue;
    for (Key& key : MineKeys(view.Bind(*base), mining)) {
      key.relation = view.name();
      result.constraints.Add(std::move(key));
    }
  }

  // Method (b): sound propagation rules.
  PropagationInput propagation;
  propagation.views = selected_views;
  propagation.base_constraints = result.constraints;
  propagation.source_sample = &source;
  result.constraints.Merge(PropagateConstraints(propagation));

  result.queries = GenerateMappings(target_schema, matches, selected_views,
                                    result.constraints);
  return result;
}

ClioQualTableResult ClioQualTable(const Database& source,
                                  const Database& target,
                                  const ContextMatchOptions& options) {
  ClioQualTableResult result;
  ContextMatchOptions qual_options = options;
  qual_options.selection = SelectionPolicy::kQualTable;
  result.match_result = MatchEngine(qual_options)
                            .Execute({.source = BorrowDatabase(source),
                                      .target = BorrowDatabase(target)})
                            .result;
  result.mapping = BuildSchemaMapping(source, target.GetSchema(),
                                      result.match_result.matches,
                                      result.match_result.selected_views);
  return result;
}

}  // namespace csm
