#include "core/clustered_view_gen.h"

#include <algorithm>
#include <atomic>
#include <map>

#include <chrono>

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
#include "relational/sample.h"
#include "stats/significance.h"
#include "text/gram.h"

namespace csm {
namespace {

/// Fraction of the sample used for doTraining (the rest goes to doTesting).
constexpr double kTrainFraction = 0.5;

/// Canonical token of a group of label values: member renderings joined by
/// '\x1f', each byte '\x1b'..'\x1f' inside a rendering prefixed by '\x1b'.
/// The escape makes the token injective, so no label value can forge a join
/// (or a FamilyPartitionKey separator) and two groups never share a token;
/// renderings without those bytes appear verbatim.
std::string GroupToken(const std::vector<Value>& members) {
  std::string out;
  for (size_t i = 0; i < members.size(); ++i) {
    if (i > 0) out += '\x1f';
    for (char c : members[i].ToString()) {
      if (c >= '\x1b' && c <= '\x1f') out += '\x1b';
      out += c;
    }
  }
  return out;
}

/// Tracks the current grouping of label values; a "group" becomes one view
/// of the family (a disjunct after merges).
class LabelGrouping {
 public:
  explicit LabelGrouping(const std::map<Value, size_t>& value_counts) {
    for (const auto& [value, count] : value_counts) {
      groups_.push_back({value});
    }
  }

  size_t num_groups() const { return groups_.size(); }

  /// The classifier label of group `g`.
  std::string Token(size_t g) const { return GroupToken(groups_[g]); }

  /// Merges the groups whose tokens are `a` and `b`; returns false if
  /// either token is unknown or they are the same group.
  bool MergeByTokens(const std::string& a, const std::string& b) {
    int ga = -1, gb = -1;
    for (size_t g = 0; g < groups_.size(); ++g) {
      if (Token(g) == a) ga = static_cast<int>(g);
      if (Token(g) == b) gb = static_cast<int>(g);
    }
    if (ga < 0 || gb < 0 || ga == gb) return false;
    auto& dst = groups_[static_cast<size_t>(std::min(ga, gb))];
    auto& src = groups_[static_cast<size_t>(std::max(ga, gb))];
    dst.insert(dst.end(), src.begin(), src.end());
    std::sort(dst.begin(), dst.end());
    groups_.erase(groups_.begin() + std::max(ga, gb));
    return true;
  }

  const std::vector<std::vector<Value>>& groups() const { return groups_; }

 private:
  std::vector<std::vector<Value>> groups_;
};

/// Builds the view family for a grouping of label attribute `l` on `table`.
ViewFamily FamilyFromGrouping(const TableView& table, const std::string& l,
                              const LabelGrouping& grouping) {
  ViewFamily family;
  family.base_table = table.name();
  family.label_attribute = l;
  for (const auto& group : grouping.groups()) {
    std::string view_name = table.name() + "[" + l + "=";
    for (size_t i = 0; i < group.size(); ++i) {
      if (i > 0) view_name += "|";
      view_name += group[i].ToString();
    }
    view_name += "]";
    family.views.emplace_back(view_name, table.name(),
                              Condition::In(l, group));
  }
  return family;
}

struct TrainTestOutcome {
  ClassifierEvaluation eval;
  double most_common_fraction = 0.0;
  size_t train_count = 0;
};

/// One doTraining + doTesting cycle for (h, l) under `grouping`.  Each base
/// row's group is resolved once per cycle from the conditions the family's
/// views carry (Condition::In(l, group) over the base table), so a row
/// trains and tests under exactly the view that would select it.  Rows
/// with no group (NULL or unseen label) or a missing evidence cell (NULL,
/// NaN or +-inf: IsMissingCell) are skipped, so they count neither toward
/// most_common_fraction nor as test errors; the classifier reads every
/// other evidence cell straight off h's base column, train rows then test
/// rows, in view order.
TrainTestOutcome RunCycle(const TrainTestViewSplit& split, size_t h_col,
                          size_t l_col, const LabelGrouping& grouping,
                          const ClassifierFactory& factory) {
  TrainTestOutcome out;
  const Column& h = split.train.column(h_col);
  std::unique_ptr<ValueClassifier> classifier = factory(h.type());
  CSM_CHECK(classifier != nullptr);

  const Table& base = split.train.base();
  const std::string& l =
      base.schema().attribute(split.train.base_column_index(l_col)).name;
  constexpr size_t kNoGroup = static_cast<size_t>(-1);
  std::vector<size_t> group_of(base.num_rows(), kNoGroup);
  std::vector<std::string> tokens;
  tokens.reserve(grouping.num_groups());
  for (size_t g = 0; g < grouping.num_groups(); ++g) {
    tokens.push_back(grouping.Token(g));
    for (RowId pos :
         Condition::In(l, grouping.groups()[g]).MatchingPositions(base)) {
      group_of[pos] = g;
    }
  }

  std::vector<size_t> train_group_counts(grouping.num_groups(), 0);
  const TableView& train = split.train;
  for (size_t r = 0; r < train.num_rows(); ++r) {
    const RowId pos = train.position(r);
    const size_t g = group_of[pos];
    if (g == kNoGroup || IsMissingCell(h, pos)) continue;
    classifier->Train(h, pos, tokens[g]);
    ++train_group_counts[g];
    ++out.train_count;
  }
  if (out.train_count == 0) return out;

  const size_t most_common =
      *std::max_element(train_group_counts.begin(), train_group_counts.end());
  out.most_common_fraction = static_cast<double>(most_common) /
                             static_cast<double>(out.train_count);

  const TableView& test = split.test;
  for (size_t r = 0; r < test.num_rows(); ++r) {
    const RowId pos = test.position(r);
    const size_t g = group_of[pos];
    if (g == kNoGroup || IsMissingCell(h, pos)) continue;
    out.eval.Observe(tokens[g], classifier->Classify(h, pos));
  }
  return out;
}

/// One (label attribute, evidence attribute) cell of the classifier grid.
struct GridCell {
  const std::string* label;
  size_t l_col;
  const std::map<Value, size_t>* counts;
  const std::string* evidence;
  size_t h_col;
};

/// Trains and evaluates one grid cell: the full LateDisjuncts cycle or the
/// EarlyDisjuncts merge loop for (l, h), emitting every grouping that
/// passes the significance gate in merge order.  Runs on a worker thread;
/// everything it touches besides `rng` is shared read-only state.
std::vector<ViewFamily> RunGridCell(const TableView& source_sample,
                                    const GridCell& cell,
                                    const ClassifierFactory& factory,
                                    const ClusteredViewGenOptions& options,
                                    bool early_disjuncts, Rng& rng) {
  std::vector<ViewFamily> emitted;
  TrainTestViewSplit split =
      SplitTrainTestView(source_sample, kTrainFraction, rng);
  LabelGrouping grouping(*cell.counts);

  // Merge loop: one iteration for LateDisjuncts; repeated error-pair
  // merging under EarlyDisjuncts.
  for (;;) {
    TrainTestOutcome outcome =
        RunCycle(split, cell.h_col, cell.l_col, grouping, factory);
    // The explicit total() == 0 clause keeps the empty-test case (all-NULL
    // columns, single-row samples) out of the significance gate even when a
    // caller sets min_test_size to 0.
    if (outcome.train_count == 0 || outcome.eval.total() == 0 ||
        outcome.eval.total() < options.min_test_size) {
      break;
    }
    SignificanceResult sig =
        ClassifierSignificance(outcome.eval.correct(), outcome.eval.total(),
                               outcome.most_common_fraction);
    if (sig.significance > options.significance_threshold &&
        grouping.num_groups() >= 2) {
      ViewFamily family =
          FamilyFromGrouping(source_sample, *cell.label, grouping);
      family.classifier_f1 = outcome.eval.MicroF(1.0);
      family.significance = sig.significance;
      family.evidence_attribute = *cell.evidence;
      emitted.push_back(std::move(family));
    }
    if (!early_disjuncts) break;
    if (outcome.eval.error_pairs().empty()) break;
    if (grouping.num_groups() <= 2) break;
    const auto ranked = outcome.eval.NormalizedErrorPairs();
    bool merged = false;
    for (const auto& [pair, weight] : ranked) {
      if (grouping.MergeByTokens(pair.first, pair.second)) {
        merged = true;
        break;
      }
    }
    if (!merged) break;
  }
  return emitted;
}

/// Dedup key of a family: its label attribute plus the partition its views'
/// conditions induce (one GroupToken per view, sorted).
std::string FamilyPartitionKey(const ViewFamily& family) {
  std::vector<std::string> tokens;
  tokens.reserve(family.views.size());
  for (const View& view : family.views) {
    tokens.push_back(GroupToken(view.condition().clauses()[0].values));
  }
  std::sort(tokens.begin(), tokens.end());
  std::string out = family.label_attribute;
  out += '\x1d';
  for (const auto& token : tokens) {
    out += token;
    out += '\x1e';
  }
  return out;
}

}  // namespace

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
  if (label_attributes.empty()) {
    label_attributes = CategoricalAttributes(source_sample, categorical);
  }
  if (evidence_attributes.empty()) {
    evidence_attributes = NonCategoricalAttributes(source_sample, categorical);
  }

  // Lay out the (l, h) grid up front: one cell per admissible pair, in the
  // same nested order the sequential loop used, so the merge below visits
  // results in the legacy order regardless of which worker ran which cell.
  std::vector<std::map<Value, size_t>> label_counts(label_attributes.size());
  std::vector<GridCell> cells;
  for (size_t li = 0; li < label_attributes.size(); ++li) {
    const std::string& l = label_attributes[li];
    label_counts[li] = source_sample.ValueCounts(l);
    const auto& counts = label_counts[li];
    if (counts.size() < 2 || counts.size() > options.max_label_cardinality) {
      continue;
    }
    const size_t l_col = source_sample.schema().AttributeIndex(l);
    for (const std::string& h : evidence_attributes) {
      if (h == l) continue;
      const size_t h_col = source_sample.schema().AttributeIndex(h);
      cells.push_back(GridCell{&l, l_col, &counts, &h, h_col});
    }
  }

  if (obs.metrics != nullptr && !cells.empty()) {
    obs.metrics->AddCounter("inference.grid_cells", cells.size());
  }

  // One seed drawn from the sequential stream; each cell splits off its own
  // deterministic RNG, so the train/test partitions do not depend on the
  // number of workers (or on which other cells exist being re-ordered).
  const uint64_t grid_seed = rng.Next();
  const TokenKernelStats& kernel_stats = GlobalTokenKernelStats();
  const uint64_t memo_hits_before =
      kernel_stats.nb_memo_hits.load(std::memory_order_relaxed);
  const uint64_t grams_before =
      kernel_stats.grams_interned.load(std::memory_order_relaxed);
  std::vector<std::vector<ViewFamily>> cell_results = exec::ParallelMap(
      pool, cells.size(),
      [&](size_t i) {
        // Fault site "inference.cell" (index = grid cell index).  A kFail
        // arm drops just this cell's families; kCancel arms cancel the
        // caller-owned token, which the surrounding ParallelMap drains on.
        if (FaultInjector::Hit("inference.cell", i)) {
          return std::vector<ViewFamily>{};
        }
        std::string span_name;
        if (obs.tracer != nullptr) {
          span_name = "cell:" + *cells[i].label + "/" + *cells[i].evidence;
        }
        // Prefer the thread's current span (the pool-task span on workers,
        // the caller's span inline); the explicit hook parent is the
        // fallback when this runs on a pool with no tracer attached.
        uint64_t parent = obs::Tracer::CurrentSpan();
        if (parent == 0) parent = obs.parent_span;
        obs::ScopedSpan span(obs.tracer, span_name, parent);
        const auto cell_start = std::chrono::steady_clock::now();
        Rng cell_rng = exec::TaskRng(grid_seed, i);
        std::vector<ViewFamily> families = RunGridCell(
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
    const uint64_t memo_hits =
        kernel_stats.nb_memo_hits.load(std::memory_order_relaxed) -
        memo_hits_before;
    const uint64_t grams =
        kernel_stats.grams_interned.load(std::memory_order_relaxed) -
        grams_before;
    if (memo_hits > 0) obs.metrics->AddCounter("ml.nb_memo_hits", memo_hits);
    if (grams > 0) obs.metrics->AddCounter("text.grams_interned", grams);
  }

  // Merge in grid order: best accepted family per (label, partition).
  std::map<std::string, ViewFamily> accepted;
  for (std::vector<ViewFamily>& families : cell_results) {
    for (ViewFamily& family : families) {
      std::string key = FamilyPartitionKey(family);
      auto it = accepted.find(key);
      if (it == accepted.end() ||
          it->second.significance < family.significance) {
        accepted[key] = std::move(family);
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
