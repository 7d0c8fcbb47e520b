// ClusteredViewGen's retrain-per-cycle merge loop and TgtClassInfer's TBag
// classifier, kept as the reference of FuzzEarlyDisjunctsEquivalence
// (check/fuzz.h).

#include "check/reference.h"

#include <algorithm>
#include <map>

#include "common/logging.h"
#include "core/clustered_view_gen.h"
#include "core/tgt_class_infer.h"
#include "exec/task_rng.h"
#include "ml/evaluation.h"
#include "relational/categorical.h"
#include "relational/condition.h"
#include "relational/sample.h"
#include "stats/significance.h"

namespace csm::check {
namespace {

/// ClusteredViewGen's train fraction.
constexpr double kTrainFraction = 0.5;

/// The cell's train and test rows, each row's atom found by one
/// Condition::In scan of the base per atom.
CellRows ResolveCellRows(const TrainTestViewSplit& split, size_t h_col,
                         size_t l_col, const LabelAtoms& atoms) {
  const Table& base = split.train.base();
  const std::string& l =
      base.schema().attribute(split.train.base_column_index(l_col)).name;
  std::vector<AtomId> atom_of(base.num_rows(), kNoAtom);
  for (AtomId a = 0; a < atoms.size(); ++a) {
    const Condition is_atom = Condition::In(l, {atoms.value(a)});
    for (RowId pos : is_atom.MatchingPositions(base)) atom_of[pos] = a;
  }
  const Column& h = split.train.column(h_col);
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

struct TrainTestOutcome {
  ClassifierEvaluation eval;
  double most_common_fraction = 0.0;
};

/// One doTraining + doTesting cycle: a fresh classifier trained on every
/// train row under its atom's label, then every test row classified.
TrainTestOutcome RunCycle(const Column& h, const CellRows& rows,
                          const std::vector<LabelId>& atom_label,
                          size_t num_labels,
                          const ReferenceClassifierFactory& factory) {
  TrainTestOutcome out;
  std::unique_ptr<ValueClassifier> classifier = factory(h.type());
  CSM_CHECK(classifier != nullptr);
  std::vector<size_t> train_label_counts(num_labels, 0);
  for (const AtomRow& row : rows.train) {
    const LabelId label = atom_label[row.atom];
    classifier->Train(h, row.pos, label);
    ++train_label_counts[label];
  }
  const size_t most_common =
      *std::max_element(train_label_counts.begin(), train_label_counts.end());
  out.most_common_fraction = static_cast<double>(most_common) /
                             static_cast<double>(rows.train.size());
  for (const AtomRow& row : rows.test) {
    out.eval.Observe(atom_label[row.atom], classifier->Classify(h, row.pos));
  }
  return out;
}

struct KeyedFamily {
  FamilyKey key;
  ViewFamily family;
};

std::vector<KeyedFamily> RunCell(const TableView& source_sample,
                                 const std::string& l, size_t l_col,
                                 const LabelAtoms& atoms,
                                 const std::string& evidence, size_t h_col,
                                 const ReferenceClassifierFactory& factory,
                                 const ClusteredViewGenOptions& options,
                                 bool early_disjuncts, Rng& rng) {
  std::vector<KeyedFamily> emitted;
  TrainTestViewSplit split =
      SplitTrainTestView(source_sample, kTrainFraction, rng);
  const CellRows rows = ResolveCellRows(split, h_col, l_col, atoms);
  if (rows.train.empty()) return emitted;
  const Column& h = split.train.column(h_col);
  std::vector<AtomGroup> groups;
  for (AtomId a = 0; a < atoms.size(); ++a) groups.push_back({a});
  for (;;) {
    const std::vector<LabelId> group_label = NumberGroups(atoms, groups);
    std::vector<LabelId> atom_label(atoms.size());
    std::vector<size_t> group_of_label(groups.size());
    for (size_t g = 0; g < groups.size(); ++g) {
      for (AtomId a : groups[g]) atom_label[a] = group_label[g];
      group_of_label[group_label[g]] = g;
    }
    TrainTestOutcome outcome =
        RunCycle(h, rows, atom_label, groups.size(), factory);
    if (outcome.eval.total() == 0 ||
        outcome.eval.total() < options.min_test_size) {
      break;
    }
    SignificanceResult sig =
        ClassifierSignificance(outcome.eval.correct(), outcome.eval.total(),
                               outcome.most_common_fraction);
    if (sig.significance > options.significance_threshold &&
        groups.size() >= 2) {
      KeyedFamily keyed{MakeFamilyKey(l, atoms, groups),
                        FamilyFromGroups(source_sample, l, atoms, groups)};
      keyed.family.classifier_f1 = outcome.eval.F1();
      keyed.family.significance = sig.significance;
      keyed.family.evidence_attribute = evidence;
      emitted.push_back(std::move(keyed));
    }
    if (!early_disjuncts) break;
    if (groups.size() <= 2) break;
    const auto ranked = outcome.eval.RankedPairs();
    if (ranked.empty()) break;
    const LabelPair& pair = ranked.front().first;
    MergeGroups(group_of_label[pair.first], group_of_label[pair.second],
                &groups);
  }
  return emitted;
}

}  // namespace

LabelId TgtTagClassifier::Tag(const Column& column, size_t row) const {
  if (tagger_ == nullptr) return kNoLabel;
  return tagger_->Classify(column, row);
}

void TgtTagClassifier::Train(const Column& column, size_t row,
                             LabelId label) {
  CSM_CHECK(label != kNoLabel) << "kNoLabel is not a trainable label";
  if (IsMissingCell(column, row)) return;
  TagCounts& tag = tbag_[Tag(column, row)];
  if (label >= tag.per_label.size()) tag.per_label.resize(size_t{label} + 1);
  ++tag.per_label[label];
  ++tag.total;
  if (label >= label_totals_.size()) label_totals_.resize(size_t{label} + 1);
  ++label_totals_[label];
  ++total_;
}

double TgtTagClassifier::Score(LabelId tag, LabelId label) const {
  auto it = tbag_.find(tag);
  if (it == tbag_.end() || label >= it->second.per_label.size()) return 0.0;
  return BestCatScore(it->second.per_label[label], it->second.total,
                      label_totals_[label]);
}

LabelId TgtTagClassifier::BestCat(LabelId tag) const {
  LabelId best = kNoLabel;
  double best_score = -1.0;
  size_t best_frequency = 0;
  const bool tag_seen = tbag_.count(tag) > 0;
  for (LabelId label = 0; label < label_totals_.size(); ++label) {
    const size_t frequency = label_totals_[label];
    if (frequency == 0) continue;
    const double score = tag_seen ? Score(tag, label) : 0.0;
    // Ties (including the unseen-tag case where all scores are 0) break
    // toward the more common label, then the lower id, for determinism.
    if (BeatsBest(score, frequency, best_score, best_frequency)) {
      best = label;
      best_score = score;
      best_frequency = frequency;
    }
  }
  return best;
}

LabelId TgtTagClassifier::Classify(const Column& column, size_t row) const {
  if (total_ == 0 || IsMissingCell(column, row)) return kNoLabel;
  return BestCat(Tag(column, row));
}

ReferenceClassifierFactory ReferenceSrcClassifiers() {
  return [](ValueType type) -> std::unique_ptr<ValueClassifier> {
    if (type == ValueType::kInt || type == ValueType::kReal) {
      return std::make_unique<GaussianClassifier>();
    }
    return std::make_unique<NaiveBayesClassifier>();
  };
}

ReferenceClassifierFactory ReferenceTgtClassifiers(
    std::shared_ptr<const ValueClassifier> string_tagger,
    std::shared_ptr<const ValueClassifier> numeric_tagger) {
  return [string_tagger, numeric_tagger](
             ValueType type) -> std::unique_ptr<ValueClassifier> {
    if (type == ValueType::kInt || type == ValueType::kReal) {
      return std::make_unique<TgtTagClassifier>(numeric_tagger);
    }
    return std::make_unique<TgtTagClassifier>(string_tagger);
  };
}

std::vector<ViewFamily> ReferenceClusteredViewGen(
    const TableView& source_sample, const ReferenceClassifierFactory& factory,
    const ClusteredViewGenOptions& options,
    const CategoricalOptions& categorical, bool early_disjuncts, Rng& rng,
    std::vector<std::string> label_attributes,
    std::vector<std::string> evidence_attributes) {
  if (source_sample.num_rows() < 2) return {};
  if (label_attributes.empty()) {
    label_attributes = CategoricalAttributes(source_sample, categorical);
  }
  if (evidence_attributes.empty()) {
    evidence_attributes = NonCategoricalAttributes(source_sample, categorical);
  }
  const uint64_t grid_seed = rng.Next();
  std::map<FamilyKey, ViewFamily> accepted;
  size_t cell = 0;
  for (const std::string& l : label_attributes) {
    std::vector<Value> values;
    for (auto& [value, count] : source_sample.ValueCounts(l)) {
      values.push_back(value);
    }
    const LabelAtoms atoms(std::move(values));
    if (atoms.size() < 2 || atoms.size() > options.max_label_cardinality) {
      continue;
    }
    const size_t l_col = source_sample.schema().AttributeIndex(l);
    for (const std::string& h : evidence_attributes) {
      if (h == l) continue;
      const size_t h_col = source_sample.schema().AttributeIndex(h);
      Rng cell_rng = exec::TaskRng(grid_seed, cell++);
      for (KeyedFamily& keyed :
           RunCell(source_sample, l, l_col, atoms, h, h_col, factory, options,
                   early_disjuncts, cell_rng)) {
        auto it = accepted.find(keyed.key);
        if (it == accepted.end()) {
          accepted.emplace(std::move(keyed.key), std::move(keyed.family));
        } else if (it->second.significance < keyed.family.significance) {
          it->second = std::move(keyed.family);
        }
      }
    }
  }
  std::vector<ViewFamily> out;
  for (auto& [key, family] : accepted) out.push_back(std::move(family));
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

}  // namespace csm::check
