// Algorithm ClusteredViewGen (Fig. 6) and its disjunctive extension
// (Section 3.3).
//
// For each (non-categorical attribute h, categorical attribute l) pair the
// values of h are treated as documents, the values of l as classification
// labels, and the tuples as the expert assignment.  A classifier h -> l is
// trained on one random subset of the sample (doTraining) and tested on the
// rest (doTesting); if its micro-averaged F1 is significantly better than
// the random-label null hypothesis (see stats/significance.h) the view
// family partitioning R on l is considered well-clustered and returned.
//
// Under EarlyDisjuncts the most frequent (frequency-normalized) error pair
// (v, v') is repeatedly merged into a disjunct l IN {v, v'} and the
// train/test cycle repeats, emitting every grouping that passes the
// significance gate, until testing is error-free or no values remain to
// merge.
//
// Groups are typed: an atom is one distinct value of l, a group a set of
// atoms, and the classifier labels of a cycle number its groups in the
// label order GroupKey defines.  Each grid cell fits one CellModel
// (ml/classifier.h) to its train and test rows and merges its groups in
// place, so a cycle re-scores the distinct test items without retraining.

#ifndef CSM_CORE_CLUSTERED_VIEW_GEN_H_
#define CSM_CORE_CLUSTERED_VIEW_GEN_H_

#include <compare>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/random.h"
#include "core/context_options.h"
#include "exec/thread_pool.h"
#include "ml/classifier.h"
#include "obs/hooks.h"
#include "relational/sample.h"
#include "relational/table.h"
#include "relational/table_view.h"
#include "relational/view.h"

namespace csm {

/// A set of atoms, ascending (its members in Value order): one view
/// `l IN group` of a family.
using AtomGroup = std::vector<AtomId>;

/// A group's place in the label order: its members' rendering ranks, then
/// its atom ids, each compared element by element with a prefix first.  So
/// groups order by their members' renderings (Value::ToString, byte order),
/// and groups whose renderings are all equal fall back to Value order.  Two
/// keys are equal exactly when their groups are.
struct GroupKey {
  std::vector<uint32_t> render_ranks;
  AtomGroup atoms;

  auto operator<=>(const GroupKey&) const = default;
};

/// The atoms of one label attribute and the rank of each one's rendering
/// among the distinct renderings (atoms that render alike share a rank).
class LabelAtoms {
 public:
  /// `values`: distinct values, ascending in Value order.
  explicit LabelAtoms(std::vector<Value> values);

  size_t size() const { return values_.size(); }
  const Value& value(AtomId atom) const { return values_[atom]; }

  /// The group's key under this attribute's rendering ranks.
  GroupKey Key(const AtomGroup& group) const;

 private:
  std::vector<Value> values_;
  std::vector<uint32_t> render_ranks_;  // by atom id
};

/// Each group's classifier label: its rank in GroupKey order.
std::vector<LabelId> NumberGroups(const LabelAtoms& atoms,
                                  const std::vector<AtomGroup>& groups);

/// Dedup key of a view family: its label attribute, then its groups' keys
/// in group order.  Equal exactly when two families partition the same
/// attribute's atoms into the same groups.
struct FamilyKey {
  std::string label_attribute;
  std::vector<GroupKey> groups;  // ascending

  auto operator<=>(const FamilyKey&) const = default;
};

FamilyKey MakeFamilyKey(std::string label_attribute, const LabelAtoms& atoms,
                        const std::vector<AtomGroup>& groups);

/// Fits one grid cell's model over evidence column `h` (a base column, read
/// at the rows' positions), the cell's train and test rows, and the label
/// attribute's atom count (SrcClassInfer: NaiveBayesCellModel for text,
/// GaussianCellModel for numerics; TgtClassInfer: BestCatCellModel).
using ClassifierFactory = std::function<std::unique_ptr<CellModel>(
    const Column& h, const CellRows& rows, size_t num_atoms)>;

/// Each base row's atom of label attribute `l`, or kNoAtom for a row no
/// atom selects (NULL label), resolved through Condition::In(l, {atom}).
/// An IN over a group matches exactly the union of its atoms' rows, so
/// every row trains and tests under the view that would select it.
inline constexpr AtomId kNoAtom = static_cast<AtomId>(-1);
std::vector<AtomId> ResolveAtoms(const Table& base, const std::string& l,
                                 const LabelAtoms& atoms);

/// A cell's train and test rows: the split's rows in view order, less rows
/// no atom selects and rows whose evidence cell (column `h` of the base) is
/// missing, so such rows count neither toward most_common_fraction nor as
/// test errors.
CellRows CollectCellRows(const TrainTestViewSplit& split, const Column& h,
                         const std::vector<AtomId>& atom_of);

/// Merges the groups at indices `a` and `b`: the lower index keeps the
/// union, in Value order, and the higher one is erased.
void MergeGroups(size_t a, size_t b, std::vector<AtomGroup>* groups);

/// The view family for `groups` of label attribute `l` on `table`: one
/// view `l IN group` per group, in group order.
ViewFamily FamilyFromGroups(const TableView& table, const std::string& l,
                            const LabelAtoms& atoms,
                            const std::vector<AtomGroup>& groups);

/// Runs ClusteredViewGen over every (h, l) pair of `source_sample` — a
/// zero-copy TableView (a Table converts implicitly) — and
/// returns the accepted well-clustered view families, deduplicated by
/// FamilyKey keeping the most significant evidence.
///
/// `label_attributes` / `evidence_attributes` default (when empty) to the
/// categorical / non-categorical attributes of the sample under
/// `categorical`.
///
/// Each label attribute's atoms are resolved once per call; each cell splits
/// the sample, collects its rows and fits one model, which the merge loop
/// re-scores every cycle.
///
/// When `pool` is non-null the (l, h) classifier grid is trained and
/// evaluated concurrently, one task per cell.  Each cell derives its own
/// RNG stream from a single seed drawn from `rng` (exec/task_rng.h) and the
/// per-cell results are merged in grid order, so the output is identical at
/// any pool size — including the serial `pool == nullptr` path.  `factory`
/// must be safe to invoke concurrently (both built-in factories are: they
/// only read captured state).
///
/// `obs` optionally records one span and one "inference.cell_seconds"
/// histogram observation per grid cell (plus an "inference.grid_cells"
/// counter).  Observation never affects the emitted families.
///
/// `cancel` makes the grid cooperative: workers poll the token between
/// cell claims and drain once it is cancelled, so only a subset of cells
/// contributes.  Callers must then treat the returned families as
/// incomplete.  The "inference.cell" FaultInjector site fires once per
/// cell (cell grid index) before the cell trains; a kFail arm drops just
/// that cell's families.
///
/// Degenerate inputs return cleanly and empty: tables with fewer than two
/// rows (nothing to split into train/test), label attributes that are
/// all-NULL or whose distinct-value count is outside [2,
/// max_label_cardinality], and cells whose test side ends up empty (the
/// significance gate needs test evidence) all emit no families.
std::vector<ViewFamily> ClusteredViewGen(
    const TableView& source_sample, const ClassifierFactory& factory,
    const ClusteredViewGenOptions& options,
    const CategoricalOptions& categorical, bool early_disjuncts, Rng& rng,
    std::vector<std::string> label_attributes = {},
    std::vector<std::string> evidence_attributes = {},
    exec::ThreadPool* pool = nullptr, const obs::ObsHooks& obs = {},
    const CancellationToken* cancel = nullptr);

}  // namespace csm

#endif  // CSM_CORE_CLUSTERED_VIEW_GEN_H_
