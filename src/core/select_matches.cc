#include "core/select_matches.h"

#include <algorithm>
#include <map>
#include <set>
#include <tuple>
#include <utility>

#include "check/invariants.h"
#include "common/logging.h"

namespace csm {
namespace {

/// The candidate view a view match was scored on.
ViewId ScoredView(const Match& match) {
  return {match.source.table, match.condition};
}

/// Confidence of the base (standard) match per (source, target) attribute
/// pair.  Built once per selection call: probing it per view match keeps
/// selection O((base + views) log base) instead of the former per-view-match
/// linear scan over base_matches (O(views x base_matches)).  Insertion keeps
/// the *first* base match of a pair, matching the old scan's semantics.
class BaseConfidenceIndex {
 public:
  explicit BaseConfidenceIndex(const MatchList& base_matches) {
    for (const Match& base : base_matches) {
      index_.try_emplace(std::make_pair(base.source, base.target),
                         base.confidence);
    }
  }

  /// 0 when the pair has no base match.
  double Lookup(const Match& view_match) const {
    auto it = index_.find(std::make_pair(view_match.source, view_match.target));
    return it == index_.end() ? 0.0 : it->second;
  }

 private:
  std::map<std::pair<AttributeRef, AttributeRef>, double> index_;
};

void SortMatches(MatchList& matches) {
  std::sort(matches.begin(), matches.end(), [](const Match& a, const Match& b) {
    if (a.target < b.target) return true;
    if (b.target < a.target) return false;
    if (a.confidence != b.confidence) return a.confidence > b.confidence;
    if (a.source < b.source) return true;
    if (b.source < a.source) return false;
    return a.condition.ToString() < b.condition.ToString();
  });
}

}  // namespace

SelectionResult SelectMultiTable(const ScoredPool& pool, double omega) {
  // Candidate set: all base matches, plus view matches that improve their
  // base counterpart by at least omega.
  MatchList eligible = pool.base_matches;
  const BaseConfidenceIndex base_confidence(pool.base_matches);
  for (const Match& vm : pool.view_matches) {
    if (vm.confidence >= base_confidence.Lookup(vm) + omega) {
      eligible.push_back(vm);
    }
  }
  // Best per target attribute.
  std::map<AttributeRef, const Match*> best;
  for (const Match& match : eligible) {
    auto [it, inserted] = best.try_emplace(match.target, &match);
    if (!inserted && match.confidence > it->second->confidence) {
      it->second = &match;
    }
  }
  SelectionResult result;
  std::set<ViewId> selected;
  for (const auto& [target, match] : best) {
    result.matches.push_back(*match);
    if (!match->condition.is_true()) selected.insert(ScoredView(*match));
  }
  for (const View& view : pool.candidate_views) {
    if (selected.count(ViewId::Of(view))) {
      result.selected_views.push_back(view);
    }
  }
  SortMatches(result.matches);
  // Selection contract: at most one selected match per target attribute.
  if constexpr (check::kInvariantsEnabled) {
    std::set<AttributeRef> seen_targets;
    for (const Match& m : result.matches) {
      CSM_INVARIANT(seen_targets.insert(m.target).second)
          << "duplicate target " << m.target.ToString();
    }
  }
  return result;
}

SelectionResult SelectQualTable(const ScoredPool& pool, double omega,
                                bool early_disjuncts, double tau) {
  SelectionResult result;

  // Group base matches by (target table, source table) and sum confidences.
  std::set<std::string> target_tables;
  for (const Match& m : pool.base_matches) target_tables.insert(m.target.table);

  std::set<ViewId> selected;
  for (const std::string& target_table : target_tables) {
    // Table-level confidence totals are best-assignment sums: each SOURCE
    // attribute contributes the confidence of its best match into this
    // target table.  A plain sum over all matches would (a) double-count a
    // source attribute matching several target attributes — so a correct
    // restriction that collapses the spurious extras looks like a loss —
    // and (b) under attribute normalization reward the base table for
    // matching every per-value column moderately, which no single-value
    // view can beat even though the view matches its own column far better.
    // (a) Source table with the highest total base confidence.
    std::map<std::string, std::map<std::string, double>> source_best;
    for (const Match& m : pool.base_matches) {
      if (m.target.table != target_table) continue;
      double& best = source_best[m.source.table][m.source.attribute];
      best = std::max(best, m.confidence);
    }
    std::string best_source;
    double base_total = -1.0;
    for (const auto& [source, per_attr] : source_best) {
      double total = 0.0;
      for (const auto& [attr, conf] : per_attr) total += conf;
      if (total > base_total) {
        best_source = source;
        base_total = total;
      }
    }
    if (best_source.empty()) continue;

    // (b) Total confidence of each candidate view of that source table
    // against this target table.
    std::map<ViewId, std::map<std::string, double>> view_best;
    for (const Match& vm : pool.view_matches) {
      if (vm.source.table != best_source || vm.target.table != target_table) {
        continue;
      }
      double& best = view_best[ScoredView(vm)][vm.source.attribute];
      best = std::max(best, vm.confidence);
    }

    // (c) Views improving the base total by at least omega; exact ties
    // fall to ViewId order.
    std::vector<std::pair<ViewId, double>> improving;
    for (const auto& [id, per_attr] : view_best) {
      double total = 0.0;
      for (const auto& [attr, conf] : per_attr) total += conf;
      if (total >= base_total + omega) improving.emplace_back(id, total);
    }
    std::sort(improving.begin(), improving.end(),
              [](const auto& a, const auto& b) {
                if (a.second != b.second) return a.second > b.second;
                return a.first < b.first;
              });
    if (early_disjuncts && improving.size() > 1) {
      // Disjunction already lives in the condition; keep the single best,
      // breaking near-ties (within 5%) toward the view with the largest
      // coverage — a merged disjunct and one of its halves score alike once
      // size bias is corrected, but the merged view maps more of the data.
      // Only views conditioned on the *same attributes* as the top view
      // compete in the tie-break: a broadly merged view on an unrelated
      // attribute must not win on coverage alone.  Exact ties (same total,
      // same rows) keep the sort's ViewId order.
      const double tie_floor = improving[0].second * 0.95;
      const std::vector<std::string> top_attrs =
          improving[0].first.condition.MentionedAttributes();
      size_t pick = 0;
      size_t best_rows = 0;
      for (size_t i = 0; i < improving.size(); ++i) {
        if (improving[i].second < tie_floor) break;
        if (improving[i].first.condition.MentionedAttributes() != top_attrs) {
          continue;
        }
        auto rows_it = pool.view_row_counts.find(improving[i].first);
        size_t rows =
            rows_it == pool.view_row_counts.end() ? 0 : rows_it->second;
        if (rows > best_rows) {
          best_rows = rows;
          pick = i;
        }
      }
      improving[0] = improving[pick];
      improving.resize(1);
    }

    if (improving.empty()) {
      // No view improves: keep the base matches of the chosen source table.
      for (const Match& m : pool.base_matches) {
        if (m.target.table == target_table && m.source.table == best_source) {
          result.matches.push_back(m);
        }
      }
      continue;
    }

    std::set<ViewId> chosen;
    for (const auto& [id, total] : improving) {
      chosen.insert(id);
      selected.insert(id);
    }
    // (d) Emit the selected views' matches: consistent with the
    // assignment-based totals, each source attribute contributes its best
    // target attribute per view, re-filtered by tau.
    std::map<std::pair<ViewId, std::string>, const Match*> best_emit;
    for (const Match& vm : pool.view_matches) {
      if (vm.source.table != best_source || vm.target.table != target_table) {
        continue;
      }
      ViewId id = ScoredView(vm);
      if (chosen.count(id) == 0) continue;
      if (vm.confidence < tau) continue;
      auto [it, inserted] =
          best_emit.try_emplace({std::move(id), vm.source.attribute}, &vm);
      if (!inserted && vm.confidence > it->second->confidence) {
        it->second = &vm;
      }
    }
    for (const auto& [key, vm] : best_emit) {
      result.matches.push_back(*vm);
    }
  }

  for (const View& view : pool.candidate_views) {
    if (selected.count(ViewId::Of(view))) {
      result.selected_views.push_back(view);
    }
  }
  SortMatches(result.matches);
  // Selection contract: each target table's matches come from the single
  // best source table chosen for it, and per target table each selected
  // view emits at most one match per source attribute (the best_emit
  // dedup key), re-filtered by tau.
  if constexpr (check::kInvariantsEnabled) {
    std::map<std::string, std::string> source_of;
    std::set<std::tuple<std::string, ViewId, std::string>> emitted;
    for (const Match& m : result.matches) {
      auto [it, inserted] =
          source_of.try_emplace(m.target.table, m.source.table);
      CSM_INVARIANT(inserted || it->second == m.source.table)
          << "target table " << m.target.table << " mixes source tables "
          << it->second << " and " << m.source.table;
      if (m.condition.is_true()) continue;  // base fallback path
      CSM_INVARIANT(m.confidence >= tau) << m.ToString();
      CSM_INVARIANT(
          emitted.emplace(m.target.table, ScoredView(m), m.source.attribute)
              .second)
          << "duplicate (target table, view, source attribute) emission "
          << m.ToString();
    }
  }
  return result;
}

SelectionResult SelectContextualMatches(const ScoredPool& pool,
                                        const ContextMatchOptions& options) {
  switch (options.selection) {
    case SelectionPolicy::kMultiTable:
      return SelectMultiTable(pool, options.omega);
    case SelectionPolicy::kQualTable:
      return SelectQualTable(pool, options.omega, options.early_disjuncts,
                             options.tau);
  }
  CSM_CHECK(false) << "unknown selection policy";
  return {};
}

}  // namespace csm
