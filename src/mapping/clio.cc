#include "mapping/clio.h"

#include <set>
#include <string>

#include "core/match_engine.h"

namespace csm {
namespace {

/// `views` with every repeated name made distinct: the second view named n
/// becomes "n#2", the third "n#3" (skipping names any view already holds),
/// so each relation the mapping layer resolves by name is one view.  Views
/// whose names are already unique keep them.
std::vector<View> DistinctlyNamedViews(std::vector<View> views) {
  std::set<std::string> taken;
  for (const View& view : views) taken.insert(view.name());
  std::set<std::string> seen;
  for (View& view : views) {
    if (seen.insert(view.name()).second) continue;
    size_t k = 2;
    std::string name = view.name() + "#2";
    while (taken.count(name) > 0) {
      name = view.name() + "#" + std::to_string(++k);
    }
    taken.insert(name);
    view = View(name, view.base_table(), view.condition(), view.projection());
  }
  return views;
}

}  // namespace

SchemaMappingResult BuildSchemaMapping(const Database& source,
                                       const Schema& target_schema,
                                       const MatchList& matches,
                                       const std::vector<View>& selected_views,
                                       const ConstraintSet& declared,
                                       const MiningOptions& mining) {
  SchemaMappingResult result;
  result.views = DistinctlyNamedViews(selected_views);
  result.matches = matches;

  // Declared constraints + mined base constraints.
  result.constraints = declared;
  result.constraints.Merge(MineConstraints(source, mining));

  // Method (a): mine keys directly on view instances (zero-copy PosList
  // views over the base table; nothing is materialized).
  for (const View& view : result.views) {
    const Table* base = source.FindTable(view.base_table());
    if (base == nullptr) continue;
    for (Key& key : MineKeys(view.Bind(*base), mining)) {
      key.relation = view.name();
      result.constraints.Add(std::move(key));
    }
  }

  // Method (b): sound propagation rules.
  PropagationInput propagation;
  propagation.views = result.views;
  propagation.base_constraints = result.constraints;
  propagation.source_sample = &source;
  result.constraints.Merge(PropagateConstraints(propagation));

  result.queries = GenerateMappings(target_schema, matches, result.views,
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
