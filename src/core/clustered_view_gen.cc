#include "core/clustered_view_gen.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <numeric>

#include "common/fault_injector.h"
#include "common/logging.h"
#include "exec/parallel.h"
#include "exec/task_rng.h"
#include "ml/evaluation.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "relational/categorical.h"
#include "relational/column.h"
#include "relational/condition.h"
#include "stats/significance.h"
#include "text/gram.h"

namespace csm {
namespace {

/// Fraction of the sample used for doTraining (the rest goes to doTesting).
constexpr double kTrainFraction = 0.5;

/// One doTesting pass of a cycle: every distinct test item classified once
/// under the groups' labels, its rows observed with their true groups'
/// labels as weights.
ClassifierEvaluation EvaluateCycle(const CellModel& model,
                                   const std::vector<LabelId>& atom_label,
                                   const std::vector<size_t>& label_order) {
  std::vector<LabelId> predicted;
  model.PredictAll(label_order, &predicted);
  ClassifierEvaluation eval;
  for (const ItemAtomRows& count : model.test_counts()) {
    eval.Observe(atom_label[count.atom], predicted[count.item], count.rows);
  }
  return eval;
}

/// A label attribute of the grid: its atoms and each base row's atom,
/// resolved once for every cell that partitions on it.
struct GridLabel {
  const std::string* name;
  LabelAtoms atoms;
  std::vector<AtomId> atom_of;
};

/// One (label attribute, evidence attribute) cell of the classifier grid.
struct GridCell {
  const GridLabel* label;
  const std::string* evidence;
  size_t h_col;
};

/// An emitted family with its dedup key.
struct KeyedFamily {
  FamilyKey key;
  ViewFamily family;
};

/// Trains and evaluates one grid cell: the full LateDisjuncts cycle or the
/// EarlyDisjuncts merge loop for (l, h), emitting every grouping that
/// passes the significance gate in merge order.  The cell's model is fitted
/// once and merges its groups as the loop does.  Runs on a worker thread;
/// everything it touches besides `rng` is shared read-only state.
std::vector<KeyedFamily> RunGridCell(const TableView& source_sample,
                                     const GridCell& cell,
                                     const ClassifierFactory& factory,
                                     const ClusteredViewGenOptions& options,
                                     bool early_disjuncts, Rng& rng) {
  std::vector<KeyedFamily> emitted;
  const TrainTestViewSplit split =
      SplitTrainTestView(source_sample, kTrainFraction, rng);
  const Column& h = split.train.column(cell.h_col);
  const CellRows rows = CollectCellRows(split, h, cell.label->atom_of);
  if (rows.train.empty()) return emitted;
  const LabelAtoms& atoms = cell.label->atoms;
  const std::unique_ptr<CellModel> model = factory(h, rows, atoms.size());
  CSM_CHECK(model != nullptr);
  std::vector<AtomGroup> groups;
  std::vector<size_t> train_rows(atoms.size(), 0);  // by group
  for (AtomId a = 0; a < atoms.size(); ++a) groups.push_back({a});
  for (const AtomRow& row : rows.train) ++train_rows[row.atom];

  // Merge loop: one iteration for LateDisjuncts; repeated error-pair
  // merging under EarlyDisjuncts.
  for (;;) {
    const std::vector<LabelId> group_label = NumberGroups(atoms, groups);
    std::vector<LabelId> atom_label(atoms.size());
    std::vector<size_t> group_of_label(groups.size());
    for (size_t g = 0; g < groups.size(); ++g) {
      for (AtomId a : groups[g]) atom_label[a] = group_label[g];
      group_of_label[group_label[g]] = g;
    }
    const ClassifierEvaluation eval =
        EvaluateCycle(*model, atom_label, group_of_label);
    // The explicit total() == 0 clause keeps the empty-test case (all-NULL
    // columns, single-row samples) out of the significance gate even when a
    // caller sets min_test_size to 0.
    if (eval.total() == 0 || eval.total() < options.min_test_size) break;
    const double most_common_fraction =
        static_cast<double>(
            *std::max_element(train_rows.begin(), train_rows.end())) /
        static_cast<double>(rows.train.size());
    SignificanceResult sig = ClassifierSignificance(
        eval.correct(), eval.total(), most_common_fraction);
    if (sig.significance > options.significance_threshold &&
        groups.size() >= 2) {
      KeyedFamily keyed{MakeFamilyKey(*cell.label->name, atoms, groups),
                        FamilyFromGroups(source_sample, *cell.label->name,
                                         atoms, groups)};
      keyed.family.classifier_f1 = eval.F1();
      keyed.family.significance = sig.significance;
      keyed.family.evidence_attribute = *cell.evidence;
      emitted.push_back(std::move(keyed));
    }
    if (!early_disjuncts) break;
    if (groups.size() <= 2) break;
    const auto ranked = eval.RankedPairs();
    if (ranked.empty()) break;
    const LabelPair& pair = ranked.front().first;
    const size_t a = std::min(group_of_label[pair.first],
                              group_of_label[pair.second]);
    const size_t b = std::max(group_of_label[pair.first],
                              group_of_label[pair.second]);
    MergeGroups(a, b, &groups);
    model->Merge(a, b);
    train_rows[a] += train_rows[b];
    train_rows.erase(train_rows.begin() + static_cast<ptrdiff_t>(b));
  }
  return emitted;
}

}  // namespace

LabelAtoms::LabelAtoms(std::vector<Value> values) : values_(std::move(values)) {
  std::vector<std::string> renderings;
  renderings.reserve(values_.size());
  for (const Value& v : values_) renderings.push_back(v.ToString());
  std::vector<std::string> distinct = renderings;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  render_ranks_.reserve(values_.size());
  for (const std::string& rendering : renderings) {
    render_ranks_.push_back(static_cast<uint32_t>(
        std::lower_bound(distinct.begin(), distinct.end(), rendering) -
        distinct.begin()));
  }
}

GroupKey LabelAtoms::Key(const AtomGroup& group) const {
  GroupKey key;
  key.render_ranks.reserve(group.size());
  for (AtomId atom : group) key.render_ranks.push_back(render_ranks_[atom]);
  key.atoms = group;
  return key;
}

std::vector<LabelId> NumberGroups(const LabelAtoms& atoms,
                                  const std::vector<AtomGroup>& groups) {
  std::vector<GroupKey> keys;
  keys.reserve(groups.size());
  for (const AtomGroup& group : groups) keys.push_back(atoms.Key(group));
  std::vector<size_t> order(groups.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return keys[a] < keys[b]; });
  std::vector<LabelId> label(groups.size());
  for (size_t rank = 0; rank < order.size(); ++rank) {
    label[order[rank]] = static_cast<LabelId>(rank);
  }
  return label;
}

FamilyKey MakeFamilyKey(std::string label_attribute, const LabelAtoms& atoms,
                        const std::vector<AtomGroup>& groups) {
  FamilyKey key{std::move(label_attribute), {}};
  key.groups.reserve(groups.size());
  for (const AtomGroup& group : groups) key.groups.push_back(atoms.Key(group));
  std::sort(key.groups.begin(), key.groups.end());
  return key;
}

std::vector<AtomId> ResolveAtoms(const Table& base, const std::string& l,
                                 const LabelAtoms& atoms) {
  std::vector<AtomId> atom_of(base.num_rows(), kNoAtom);
  for (AtomId a = 0; a < atoms.size(); ++a) {
    const Condition is_atom = Condition::In(l, {atoms.value(a)});
    for (RowId pos : is_atom.MatchingPositions(base)) atom_of[pos] = a;
  }
  return atom_of;
}

CellRows CollectCellRows(const TrainTestViewSplit& split, const Column& h,
                         const std::vector<AtomId>& atom_of) {
  auto collect = [&](const TableView& side) {
    std::vector<AtomRow> rows;
    for (size_t r = 0; r < side.num_rows(); ++r) {
      const RowId pos = side.position(r);
      if (atom_of[pos] == kNoAtom || IsMissingCell(h, pos)) continue;
      rows.push_back({pos, atom_of[pos]});
    }
    return rows;
  };
  return CellRows{collect(split.train), collect(split.test)};
}

void MergeGroups(size_t a, size_t b, std::vector<AtomGroup>* groups) {
  AtomGroup& dst = (*groups)[std::min(a, b)];
  const AtomGroup& src = (*groups)[std::max(a, b)];
  dst.insert(dst.end(), src.begin(), src.end());
  std::sort(dst.begin(), dst.end());
  groups->erase(groups->begin() + static_cast<ptrdiff_t>(std::max(a, b)));
}

ViewFamily FamilyFromGroups(const TableView& table, const std::string& l,
                            const LabelAtoms& atoms,
                            const std::vector<AtomGroup>& groups) {
  ViewFamily family;
  family.base_table = table.name();
  family.label_attribute = l;
  for (const AtomGroup& group : groups) {
    std::string view_name = table.name() + "[" + l + "=";
    std::vector<Value> values;
    for (size_t i = 0; i < group.size(); ++i) {
      if (i > 0) view_name += "|";
      view_name += atoms.value(group[i]).ToString();
      values.push_back(atoms.value(group[i]));
    }
    view_name += "]";
    family.views.emplace_back(view_name, table.name(),
                              Condition::In(l, std::move(values)));
  }
  return family;
}

std::vector<ViewFamily> ClusteredViewGen(
    const TableView& source_sample, const ClassifierFactory& factory,
    const ClusteredViewGenOptions& options,
    const CategoricalOptions& categorical, bool early_disjuncts, Rng& rng,
    std::vector<std::string> label_attributes,
    std::vector<std::string> evidence_attributes, exec::ThreadPool* pool,
    const obs::ObsHooks& obs, const CancellationToken* cancel) {
  // Nothing to split into train/test: no cell could pass the significance
  // gate, so skip the grid entirely.
  if (source_sample.num_rows() < 2) return {};
  if (label_attributes.empty() || evidence_attributes.empty()) {
    CategoricalSplit split =
        SplitCategoricalAttributes(source_sample, categorical);
    if (label_attributes.empty()) {
      label_attributes = std::move(split.categorical);
    }
    if (evidence_attributes.empty()) {
      evidence_attributes = std::move(split.non_categorical);
    }
  }

  // Lay out the (l, h) grid up front: one cell per admissible pair, in the
  // same nested order the sequential loop used, so the merge below visits
  // results in the legacy order regardless of which worker ran which cell.
  // Each admissible label attribute's atoms are resolved here, once.
  std::vector<GridLabel> labels;
  labels.reserve(label_attributes.size());  // cells point into it
  std::vector<GridCell> cells;
  for (const std::string& l : label_attributes) {
    std::vector<Value> values;
    for (auto& [value, count] : source_sample.ValueCounts(l)) {
      values.push_back(value);
    }
    LabelAtoms atoms(std::move(values));
    if (atoms.size() < 2 || atoms.size() > options.max_label_cardinality) {
      continue;
    }
    std::vector<AtomId> atom_of =
        ResolveAtoms(source_sample.base(), l, atoms);
    const GridLabel& label = labels.emplace_back(
        GridLabel{&l, std::move(atoms), std::move(atom_of)});
    for (const std::string& h : evidence_attributes) {
      if (h == l) continue;
      const size_t h_col = source_sample.schema().AttributeIndex(h);
      cells.push_back(GridCell{&label, &h, h_col});
    }
  }

  if (obs.metrics != nullptr && !cells.empty()) {
    obs.metrics->AddCounter("inference.grid_cells", cells.size());
  }

  // One seed drawn from the sequential stream; each cell splits off its own
  // deterministic RNG, so the train/test partitions do not depend on the
  // number of workers (or on which other cells exist being re-ordered).
  const uint64_t grid_seed = rng.Next();
  const uint64_t grams_before =
      GlobalTokenKernelStats().grams_interned.load(std::memory_order_relaxed);
  std::vector<std::vector<KeyedFamily>> cell_results = exec::ParallelMap(
      pool, cells.size(),
      [&](size_t i) {
        // Fault site "inference.cell" (index = grid cell index).  A kFail
        // arm drops just this cell's families; kCancel arms cancel the
        // caller-owned token, which the surrounding ParallelMap drains on.
        if (FaultInjector::Hit("inference.cell", i)) {
          return std::vector<KeyedFamily>{};
        }
        std::string span_name;
        if (obs.tracer != nullptr) {
          span_name =
              "cell:" + *cells[i].label->name + "/" + *cells[i].evidence;
        }
        // Prefer the thread's current span (the pool-task span on workers,
        // the caller's span inline); the explicit hook parent is the
        // fallback when this runs on a pool with no tracer attached.
        uint64_t parent = obs::Tracer::CurrentSpan();
        if (parent == 0) parent = obs.parent_span;
        obs::ScopedSpan span(obs.tracer, span_name, parent);
        const auto cell_start = std::chrono::steady_clock::now();
        Rng cell_rng = exec::TaskRng(grid_seed, i);
        std::vector<KeyedFamily> families = RunGridCell(
            source_sample, cells[i], factory, options, early_disjuncts,
            cell_rng);
        if (obs.metrics != nullptr) {
          obs.metrics->Observe(
              "inference.cell_seconds",
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            cell_start)
                  .count());
        }
        return families;
      },
      cancel);

  if (obs.metrics != nullptr) {
    const uint64_t grams =
        GlobalTokenKernelStats().grams_interned.load(
            std::memory_order_relaxed) -
        grams_before;
    if (grams > 0) obs.metrics->AddCounter("text.grams_interned", grams);
  }

  // Merge in grid order: best accepted family per FamilyKey.
  std::map<FamilyKey, ViewFamily> accepted;
  for (std::vector<KeyedFamily>& families : cell_results) {
    for (KeyedFamily& keyed : families) {
      auto it = accepted.find(keyed.key);
      if (it == accepted.end()) {
        accepted.emplace(std::move(keyed.key), std::move(keyed.family));
      } else if (it->second.significance < keyed.family.significance) {
        it->second = std::move(keyed.family);
      }
    }
  }

  std::vector<ViewFamily> out;
  out.reserve(accepted.size());
  for (auto& [key, family] : accepted) out.push_back(std::move(family));
  // Most significant families first; stable tiebreak on base/label.
  std::sort(out.begin(), out.end(), [](const ViewFamily& a,
                                       const ViewFamily& b) {
    if (a.significance != b.significance) {
      return a.significance > b.significance;
    }
    if (a.label_attribute != b.label_attribute) {
      return a.label_attribute < b.label_attribute;
    }
    return a.views.size() < b.views.size();
  });
  return out;
}

}  // namespace csm
