// FuzzEarlyDisjunctsEquivalence: ClusteredViewGen's per-cell models against
// the retrain-per-cycle merge loop (check/reference.h), and TgtClassInfer's
// up-front tags against the reference taggers (check/reference_classifier.h).

#include <algorithm>
#include <bit>
#include <cstdio>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "check/fuzz.h"
#include "check/generators.h"
#include "check/reference.h"
#include "core/clustered_view_gen.h"
#include "core/src_class_infer.h"
#include "core/tgt_class_infer.h"
#include "exec/thread_pool.h"
#include "ml/evaluation.h"
#include "relational/sample.h"

namespace csm::check {
namespace {

Status Replay(const FuzzOptions& options, size_t iteration, Status status) {
  if (status.ok()) return status;
  return Status(status.code(),
                "replay: seed=" + std::to_string(options.seed) +
                    " iteration=" + std::to_string(iteration) + "; " +
                    status.message());
}

std::string Hex(double x) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%a", x);
  return buffer;
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/// The retrained classifier's score of `label` for the cell at `pos`:
/// LogScore for Naive Bayes and the Gaussian, the TBag score of the cell's
/// tag for bestCAT.
double ReferenceScore(const ValueClassifier& classifier, const Column& h,
                      RowId pos, LabelId label) {
  if (const auto* nb = dynamic_cast<const NaiveBayesClassifier*>(&classifier)) {
    return nb->LogScore(h, pos, label);
  }
  if (const auto* gauss =
          dynamic_cast<const GaussianClassifier*>(&classifier)) {
    const double x = h.type() == ValueType::kInt
                         ? static_cast<double>(h.ints()[pos])
                         : h.reals()[pos];
    return gauss->LogScore(x, label);
  }
  const auto& tags = dynamic_cast<const TgtTagClassifier&>(classifier);
  return tags.Score(tags.Tag(h, pos), label);
}

std::string DescribeEval(const ClassifierEvaluation& eval) {
  std::string out = "total " + std::to_string(eval.total()) + " correct " +
                    std::to_string(eval.correct()) + " pairs";
  for (const auto& [pair, count] : eval.error_pairs()) {
    out += " (" + std::to_string(pair.first) + "," +
           std::to_string(pair.second) + ")x" + std::to_string(count);
  }
  return out;
}

// ------------------------------------------------------------ random cells

/// Distinct label values of one type, ascending: strings (with "" and
/// renderings that sort apart from their values), ints crossing 9/10, or
/// reals.
std::vector<Value> RandomLabelValues(size_t count, Rng& rng) {
  std::vector<Value> values;
  const size_t type = rng.NextBounded(3);
  for (size_t j = 0; j < count; ++j) {
    if (type == 0) {
      values.push_back(Value::Int(static_cast<int64_t>(5 + j)));
    } else if (type == 1) {
      values.push_back(Value::Real(0.75 * static_cast<double>(j) - 1.0));
    } else {
      values.push_back(Value::String(j == 0 && rng.NextBernoulli(0.3)
                                         ? std::string()
                                         : "v" + std::to_string(9 + j)));
    }
  }
  std::sort(values.begin(), values.end());
  return values;
}

/// One evidence cell for a row of label atom `atom`: aligned with the
/// atom (atoms sharing `atom % shared` share evidence) with probability
/// `align`, drawn from a pool shared by every atom otherwise; NULL, "",
/// NaN and +-inf among them.
void AppendEvidence(Column* column, size_t atom, size_t shared, double align,
                    Rng& rng) {
  if (rng.NextBernoulli(0.08)) {
    column->AppendNull();
    return;
  }
  const bool aligned = rng.NextBernoulli(align);
  const size_t key = atom % shared;
  switch (column->type()) {
    case ValueType::kString: {
      static const char* const kPool[] = {"ab", "abc", "x y", "", "zz top",
                                          "w1", "b", "it's", "a b c"};
      column->AppendString(aligned
                               ? "w" + std::to_string(key) +
                                     (rng.NextBernoulli(0.3) ? " x" : "")
                               : kPool[rng.NextBounded(std::size(kPool))]);
      return;
    }
    case ValueType::kInt:
      column->Append(Value::Int(
          aligned ? static_cast<int64_t>(10 * key + rng.NextBounded(3))
                  : static_cast<int64_t>(rng.NextBounded(50))));
      return;
    default: {
      const double special = rng.NextDouble();
      if (special < 0.03) {
        column->Append(Value::Real(std::numeric_limits<double>::quiet_NaN()));
      } else if (special < 0.06) {
        column->Append(Value::Real(
            (special < 0.045 ? 1.0 : -1.0) *
            std::numeric_limits<double>::infinity()));
      } else {
        column->Append(Value::Real(
            aligned ? 3.0 * static_cast<double>(key) + rng.NextDouble()
                    : rng.NextDouble(-5.0, 40.0)));
      }
      return;
    }
  }
}

/// A source table: label attributes "l" (and sometimes "m") with 2 to
/// `max_atoms` atoms, some rare enough to hold one row or none in a
/// train split, some rows NULL; evidence attributes "s" (string), "i"
/// (int) and "r" (real).
Table RandomCellTable(size_t max_atoms, Rng& rng,
                      std::vector<std::string>* labels,
                      std::vector<std::string>* evidence) {
  const size_t rows = 2 + rng.NextBounded(60);
  TableSchema schema("t");
  *labels = {"l"};
  if (rng.NextBernoulli(0.4)) labels->push_back("m");
  *evidence = {"s", "i", "r"};
  std::vector<std::vector<Value>> label_values;
  std::vector<std::vector<double>> weights;
  for (const std::string& l : *labels) {
    const size_t atoms = 2 + rng.NextBounded(max_atoms - 1);
    label_values.push_back(RandomLabelValues(atoms, rng));
    schema.AddAttribute(l, label_values.back().front().type());
    std::vector<double>& w = weights.emplace_back();
    for (size_t j = 0; j < atoms; ++j) {
      static const double kWeights[] = {0.3, 1.0, 4.0};
      w.push_back(kWeights[rng.NextBounded(3)]);
    }
  }
  schema.AddAttribute("s", ValueType::kString);
  schema.AddAttribute("i", ValueType::kInt);
  schema.AddAttribute("r", ValueType::kReal);
  Table table(schema);
  std::vector<Column> columns;
  for (size_t c = 0; c < schema.num_attributes(); ++c) {
    columns.emplace_back(schema.attribute(c).type);
  }
  const size_t shared = 1 + rng.NextBounded(4);
  const double align = rng.NextDouble(0.3, 1.0);
  for (size_t r = 0; r < rows; ++r) {
    size_t first_atom = 0;
    for (size_t k = 0; k < labels->size(); ++k) {
      double total = 0.0;
      for (double w : weights[k]) total += w;
      double pick = rng.NextDouble() * total;
      size_t atom = 0;
      while (atom + 1 < weights[k].size() && pick >= weights[k][atom]) {
        pick -= weights[k][atom];
        ++atom;
      }
      if (k == 0) first_atom = atom;
      if (rng.NextBernoulli(0.04)) {
        columns[k].AppendNull();
      } else {
        columns[k].Append(label_values[k][atom]);
      }
    }
    for (size_t e = 0; e < 3; ++e) {
      AppendEvidence(&columns[labels->size() + e], first_atom, shared, align,
                     rng);
    }
  }
  for (size_t r = 0; r < rows; ++r) {
    Row row;
    for (const Column& column : columns) row.push_back(column.GetValue(r));
    table.AddRow(std::move(row));
  }
  return table;
}

/// Appends `count` string cells `text` to `column`.
void AppendStrings(Column* column, const std::string& text, size_t count) {
  for (size_t k = 0; k < count; ++k) column->AppendString(text);
}

/// A table of `columns` named `attributes`; shorter columns are padded with
/// NULL cells.
Table TableOf(const std::string& name,
              const std::vector<std::string>& attributes,
              std::vector<Column> columns) {
  TableSchema schema(name);
  size_t rows = 0;
  for (size_t c = 0; c < columns.size(); ++c) {
    schema.AddAttribute(attributes[c], columns[c].type());
    rows = std::max(rows, columns[c].size());
  }
  for (Column& column : columns) {
    while (column.size() < rows) column.AppendNull();
  }
  Table table(schema);
  for (size_t r = 0; r < rows; ++r) {
    Row row;
    for (const Column& column : columns) row.push_back(column.GetValue(r));
    table.AddRow(std::move(row));
  }
  return table;
}

/// A target whose two string columns tie exactly, the less frequent one
/// holding the lower label, on every two-letter evidence value outside
/// their grams ("w0" to "w3"): T.a holds m_a cells "b" and n_a - m_a
/// gram-free cells "!", T.z holds m_z cells "cde" and n_z - m_z cells "!",
/// as in the Naive Bayes tie of FuzzTokenKernelEquivalence with c = 2 and
/// a four-gram probe, so n_z + 1 = 16 (n_a + 1).  Sometimes a numeric
/// column rides along; it changes neither string label's score.
Database TieTargetDatabase(Rng& rng) {
  const size_t m_a = 1 + 5 * rng.NextBounded(3);
  const size_t m_z = (6 * m_a + 9) / 5;
  const size_t n_a = m_a + rng.NextBounded(4);
  const size_t n_z = 16 * (n_a + 1) - 1;
  std::vector<std::string> attributes = {"a", "z"};
  std::vector<Column> columns(2, Column(ValueType::kString));
  AppendStrings(&columns[0], "b", m_a);
  AppendStrings(&columns[0], "!", n_a - m_a);
  AppendStrings(&columns[1], "cde", m_z);
  AppendStrings(&columns[1], "!", n_z - m_z);
  if (rng.NextBernoulli(0.5)) {
    attributes.push_back("r");
    Column& numbers = columns.emplace_back(ValueType::kReal);
    for (size_t r = 0; r < n_z; ++r) {
      AppendEvidence(&numbers, rng.NextBounded(6), 3, 0.7, rng);
    }
  }
  Database target("target");
  target.AddTable(TableOf("T", attributes, std::move(columns)));
  return target;
}

/// A target database for TgtClassInfer's taggers: tables of string, int and
/// real columns over the evidence pools, with NULL, NaN and +-inf cells.
/// Each target keeps both type families or only one, so an evidence
/// attribute may find no target column of its type.  Sometimes a table
/// holds an all-NULL column or a twin column (the same cells, so its label
/// ties exactly with the original's), and sometimes tables "p" and "p.q"
/// hold up to 24 columns of one type whose "table.attr" names coincide in
/// pairs ("p" + "q.aN" and "p.q" + "aN"), more than an insertion sort
/// orders.  A quarter of the targets are TieTargetDatabase's.
Database RandomTargetDatabase(Rng& rng) {
  if (rng.NextBernoulli(0.25)) return TieTargetDatabase(rng);
  static const ValueType kTypes[] = {ValueType::kString, ValueType::kInt,
                                     ValueType::kReal};
  const size_t families = rng.NextBounded(4);  // 2: text only, 3: numeric
  auto random_type = [&] {
    if (families == 2) return ValueType::kString;
    if (families == 3) return kTypes[1 + rng.NextBounded(2)];
    return kTypes[rng.NextBounded(3)];
  };
  auto random_column = [&](ValueType type, size_t rows, size_t shared) {
    Column column(type);
    for (size_t r = 0; r < rows; ++r) {
      AppendEvidence(&column, rng.NextBounded(6), shared, 0.7, rng);
    }
    return column;
  };
  Database target("target");
  const size_t tables = 1 + rng.NextBounded(2);
  for (size_t t = 0; t < tables; ++t) {
    const size_t rows = 3 + rng.NextBounded(12);
    std::vector<std::string> attributes;
    std::vector<Column> columns;
    const size_t num_columns = 2 + rng.NextBounded(2);
    for (size_t c = 0; c < num_columns; ++c) {
      attributes.push_back(std::string(1, static_cast<char>('a' + c)));
      columns.push_back(random_column(random_type(), rows, 2 + c));
    }
    if (rng.NextBernoulli(0.2)) {
      attributes.push_back("n");
      Column& nulls = columns.emplace_back(random_type());
      for (size_t r = 0; r < rows; ++r) nulls.AppendNull();
    }
    if (rng.NextBernoulli(0.3)) {
      attributes.push_back("twin");
      Column twin = columns[rng.NextBounded(columns.size())];
      columns.push_back(std::move(twin));
    }
    target.AddTable(
        TableOf("T" + std::to_string(t), attributes, std::move(columns)));
  }
  if (rng.NextBernoulli(0.3)) {
    const ValueType type = random_type();
    const size_t pairs = 1 + rng.NextBounded(12);
    const size_t rows = 3 + rng.NextBounded(6);
    std::vector<std::string> outer_attributes, inner_attributes;
    std::vector<Column> outer, inner;
    for (size_t k = 0; k < pairs; ++k) {
      outer_attributes.push_back("q.a" + std::to_string(k));
      inner_attributes.push_back("a" + std::to_string(k));
      outer.push_back(random_column(type, rows, 2 + k % 3));
      inner.push_back(random_column(type, rows, 2 + k % 3));
    }
    target.AddTable(TableOf("p", outer_attributes, std::move(outer)));
    target.AddTable(TableOf("p.q", inner_attributes, std::move(inner)));
  }
  return target;
}

/// Every evidence cell's up-front tag against the reference tagger of its
/// type family (kNoLabel without one): the tags of `sample`, a view of
/// `table`, hold the reference's tag at the view's positions and kNoLabel
/// elsewhere.
Status CompareTags(const Table& table, const TableView& sample,
                   const std::vector<std::string>& evidence,
                   const Database& target,
                   const ValueClassifier* string_tagger,
                   const ValueClassifier* numeric_tagger) {
  const TargetTags tags(sample, evidence, target);
  std::vector<bool> in_sample(table.num_rows(), false);
  for (RowId pos : sample.Positions()) in_sample[pos] = true;
  for (const std::string& e : evidence) {
    const Column& h = table.column(table.schema().AttributeIndex(e));
    const ValueClassifier* tagger =
        h.type() == ValueType::kInt || h.type() == ValueType::kReal
            ? numeric_tagger
            : string_tagger;
    const std::vector<LabelId>& actual = tags.Of(h);
    if (actual.size() != table.num_rows()) {
      return Status::Internal(e + ": " + std::to_string(actual.size()) +
                              " tags for " + std::to_string(table.num_rows()) +
                              " rows");
    }
    for (RowId pos = 0; pos < table.num_rows(); ++pos) {
      const LabelId expected = !in_sample[pos] || tagger == nullptr
                                   ? kNoLabel
                                   : tagger->Classify(h, pos);
      if (actual[pos] != expected) {
        return Status::Internal(
            e + " row " + std::to_string(pos) + " '" +
            h.GetValue(pos).ToString() + "'" +
            (in_sample[pos] ? "" : " (outside the sample)") + ": tag " +
            std::to_string(actual[pos]) + ", reference " +
            std::to_string(expected));
      }
    }
  }
  return Status::Ok();
}

Status CompareFamilies(const std::vector<ViewFamily>& expected,
                       const std::vector<ViewFamily>& actual,
                       const std::string& where) {
  if (expected.size() != actual.size()) {
    return Status::Internal(where + ": " + std::to_string(actual.size()) +
                            " families, reference " +
                            std::to_string(expected.size()));
  }
  for (size_t f = 0; f < expected.size(); ++f) {
    const ViewFamily& e = expected[f];
    const ViewFamily& a = actual[f];
    const std::string at = where + ", family " + std::to_string(f);
    if (e.base_table != a.base_table ||
        e.label_attribute != a.label_attribute ||
        e.evidence_attribute != a.evidence_attribute) {
      return Status::Internal(at + ": " + a.label_attribute + "/" +
                              a.evidence_attribute + ", reference " +
                              e.label_attribute + "/" + e.evidence_attribute);
    }
    if (!SameBits(e.classifier_f1, a.classifier_f1) ||
        !SameBits(e.significance, a.significance)) {
      return Status::Internal(at + ": f1 " + Hex(a.classifier_f1) +
                              " significance " + Hex(a.significance) +
                              ", reference " + Hex(e.classifier_f1) + " " +
                              Hex(e.significance));
    }
    if (e.views.size() != a.views.size()) {
      return Status::Internal(at + ": " + std::to_string(a.views.size()) +
                              " views, reference " +
                              std::to_string(e.views.size()));
    }
    for (size_t v = 0; v < e.views.size(); ++v) {
      if (e.views[v].name() != a.views[v].name() ||
          !(ViewId::Of(e.views[v]) == ViewId::Of(a.views[v]))) {
        return Status::Internal(at + ": view " + a.views[v].name() +
                                ", reference " + e.views[v].name());
      }
    }
  }
  return Status::Ok();
}

/// A cell whose two groups tie exactly after a merge, the less frequent
/// one holding the lower label: atoms "a1" and "a2" (their train rows
/// hold m_a cells "b" and n_a - m_a gram-free cells "!") merge first,
/// because a1's "b" test rows go to a2, and then tie with atom "z" (m_z
/// cells "cde", n_z - m_z cells "!") on probes of unseen grams, as in
/// the Naive Bayes tie of FuzzTokenKernelEquivalence: the labels tie
/// when n_z + 1 = c^k (n_a + 1) for a probe of k grams.
Status CheckMergedTie(Rng& rng) {
  const size_t c = 2 + rng.NextBounded(2);
  const size_t m_a = (c == 2 ? 1 : 3) + 5 * rng.NextBounded(3);
  const size_t m_z = (c * (3 * m_a + 9) - 9) / 5;
  const size_t n_a = m_a + rng.NextBounded(4);
  const size_t probe_len = 1 + rng.NextBounded(3);
  size_t ratio = 1;
  for (size_t k = 0; k < probe_len + 2; ++k) ratio *= c;
  const size_t n_z = ratio * (n_a + 1) - 1;

  const LabelAtoms atoms(
      {Value::String("a1"), Value::String("a2"), Value::String("z")});
  Column cells(ValueType::kString);
  CellRows rows;
  auto add = [&](const std::string& text, AtomId atom, size_t count,
                 std::vector<AtomRow>* side) {
    for (size_t k = 0; k < count; ++k) {
      side->push_back({static_cast<RowId>(cells.size()), atom});
      cells.AppendString(text);
    }
  };
  add("b", 1, m_a, &rows.train);
  add("!", 0, n_a - m_a, &rows.train);
  add("cde", 2, m_z, &rows.train);
  add("!", 2, n_z - m_z, &rows.train);
  add("b", 0, 2 + rng.NextBounded(3), &rows.test);
  add("cde", 2, rng.NextBounded(3), &rows.test);
  for (size_t k = 0; k < 4; ++k) {
    std::string probe;
    for (size_t j = 0; j < probe_len; ++j) {
      probe += static_cast<char>('f' + rng.NextBounded(20));
    }
    add(probe, rng.NextBernoulli(0.5) ? 0 : 2, 1, &rows.test);
  }
  return CompareCellModelCycles(cells, rows, atoms, SrcClassifierFactory(),
                                ReferenceSrcClassifiers(), true);
}

}  // namespace

Status CompareCellModelCycles(const Column& h, const CellRows& rows,
                              const LabelAtoms& atoms,
                              const ClassifierFactory& models,
                              const ReferenceClassifierFactory& reference,
                              bool early_disjuncts) {
  const std::unique_ptr<CellModel> model = models(h, rows, atoms.size());
  std::vector<AtomGroup> groups;
  for (AtomId a = 0; a < atoms.size(); ++a) groups.push_back({a});
  for (size_t cycle = 0;; ++cycle) {
    const std::string at = "cycle " + std::to_string(cycle) + " (" +
                           std::to_string(groups.size()) + " groups)";
    const std::vector<LabelId> group_label = NumberGroups(atoms, groups);
    std::vector<LabelId> atom_label(atoms.size());
    std::vector<size_t> group_of_label(groups.size());
    for (size_t g = 0; g < groups.size(); ++g) {
      for (AtomId a : groups[g]) atom_label[a] = group_label[g];
      group_of_label[group_label[g]] = g;
    }
    const std::unique_ptr<ValueClassifier> classifier = reference(h.type());
    for (const AtomRow& row : rows.train) {
      classifier->Train(h, row.pos, atom_label[row.atom]);
    }
    std::vector<LabelId> predicted;
    model->PredictAll(group_of_label, &predicted);
    if (predicted.size() != model->num_items()) {
      return Status::Internal(at + ": " + std::to_string(predicted.size()) +
                              " predictions for " +
                              std::to_string(model->num_items()) + " items");
    }
    for (uint32_t item = 0; item < model->num_items(); ++item) {
      const RowId pos = model->item_row(item);
      const std::string cell =
          at + ", item " + std::to_string(item) + " '" +
          h.GetValue(pos).ToString() + "'";
      for (size_t g = 0; g < groups.size(); ++g) {
        const double expected =
            ReferenceScore(*classifier, h, pos, group_label[g]);
        const double actual = model->Score(item, g);
        if (!SameBits(expected, actual)) {
          return Status::Internal(cell + ": label " +
                                  std::to_string(group_label[g]) +
                                  " scores " + Hex(actual) +
                                  ", retrained " + Hex(expected));
        }
      }
      const LabelId expected = classifier->Classify(h, pos);
      if (predicted[item] != expected) {
        return Status::Internal(cell + ": predicted " +
                                std::to_string(predicted[item]) +
                                ", retrained " + std::to_string(expected));
      }
    }
    // The weighted evaluation against one observation per test row.
    ClassifierEvaluation per_row;
    for (const AtomRow& row : rows.test) {
      per_row.Observe(atom_label[row.atom], classifier->Classify(h, row.pos));
    }
    ClassifierEvaluation weighted;
    for (const ItemAtomRows& count : model->test_counts()) {
      weighted.Observe(atom_label[count.atom], predicted[count.item],
                       count.rows);
    }
    if (per_row.total() != weighted.total() ||
        per_row.correct() != weighted.correct() ||
        per_row.error_pairs() != weighted.error_pairs()) {
      return Status::Internal(at + ": weighted evaluation " +
                              DescribeEval(weighted) + ", per row " +
                              DescribeEval(per_row));
    }
    if (!early_disjuncts || groups.size() <= 2) return Status::Ok();
    const auto ranked = per_row.RankedPairs();
    if (ranked.empty()) return Status::Ok();
    const size_t a = std::min(group_of_label[ranked.front().first.first],
                              group_of_label[ranked.front().first.second]);
    const size_t b = std::max(group_of_label[ranked.front().first.first],
                              group_of_label[ranked.front().first.second]);
    MergeGroups(a, b, &groups);
    model->Merge(a, b);
  }
}

Status FuzzEarlyDisjunctsEquivalence(const FuzzOptions& options) {
  std::vector<std::unique_ptr<exec::ThreadPool>> pools;
  for (size_t threads : options.thread_counts) {
    pools.push_back(threads > 1 ? std::make_unique<exec::ThreadPool>(threads)
                                : nullptr);
  }
  for (size_t i = 0; i < options.iterations; ++i) {
    Rng rng(IterationSeed(options.seed, i));
    auto fail = [&](Status status) { return Replay(options, i, status); };
    ClusteredViewGenOptions cvg;
    cvg.max_label_cardinality = 2 + rng.NextBounded(9);
    static const double kThresholds[] = {0.95, 0.5, 0.0};
    cvg.significance_threshold = kThresholds[rng.NextBounded(3)];
    cvg.min_test_size = rng.NextBounded(5);
    std::vector<std::string> labels;
    std::vector<std::string> evidence;
    const Table table =
        RandomCellTable(cvg.max_label_cardinality, rng, &labels, &evidence);
    const Database target = RandomTargetDatabase(rng);
    const std::shared_ptr<const ValueClassifier> string_tagger =
        ReferenceTargetClassifier(ValueType::kString, target);
    const std::shared_ptr<const ValueClassifier> numeric_tagger =
        ReferenceTargetClassifier(ValueType::kReal, target);
    // (0) The up-front tags against the reference taggers, over the whole
    // table and over a random subset of its rows.
    PosList subset;
    for (RowId pos = 0; pos < table.num_rows(); ++pos) {
      if (rng.NextBernoulli(0.5)) subset.push_back(pos);
    }
    for (const TableView& sample :
         {TableView(table), TableView(table, std::move(subset))}) {
      const Status status =
          CompareTags(table, sample, evidence, target, string_tagger.get(),
                      numeric_tagger.get());
      if (!status.ok()) {
        return fail(Status::Internal(
            std::string("tags of ") +
            (sample.is_identity() ? "the table" : "a subset") + ", " +
            status.message()));
      }
    }
    const TargetTags tags(table, evidence, target);
    const ClassifierFactory tgt_models = [&](const Column& h,
                                             const CellRows& rows,
                                             size_t num_atoms) {
      return std::make_unique<BestCatCellModel>(tags.Of(h), rows, num_atoms);
    };
    struct Kind {
      const char* name;
      ClassifierFactory models;
      ReferenceClassifierFactory reference;
    };
    const Kind kinds[] = {
        {"SrcClassInfer", SrcClassifierFactory(), ReferenceSrcClassifiers()},
        {"TgtClassInfer", tgt_models,
         ReferenceTgtClassifiers(string_tagger, numeric_tagger)}};

    // (1) Every cell's cycles, model against a retrained classifier.
    for (const std::string& l : labels) {
      std::vector<Value> values;
      for (auto& [value, count] : table.ValueCounts(l)) values.push_back(value);
      const LabelAtoms atoms(std::move(values));
      if (atoms.size() < 2) continue;
      const std::vector<AtomId> atom_of = ResolveAtoms(table, l, atoms);
      for (const std::string& e : evidence) {
        const TrainTestViewSplit split = SplitTrainTestView(table, 0.5, rng);
        const Column& h = table.column(table.schema().AttributeIndex(e));
        const CellRows rows = CollectCellRows(split, h, atom_of);
        if (rows.train.empty()) continue;
        for (const Kind& kind : kinds) {
          const Status status = CompareCellModelCycles(
              h, rows, atoms, kind.models, kind.reference, true);
          if (!status.ok()) {
            return fail(Status::Internal(std::string(kind.name) + " cell " +
                                         l + "/" + e + ", " +
                                         status.message()));
          }
        }
      }
    }
    // (2) Emitted families against the reference loop, Late and Early, at
    // every thread count.
    const uint64_t grid_seed = rng.Next();
    for (const Kind& kind : kinds) {
      for (bool early : {false, true}) {
        Rng reference_rng(grid_seed);
        const std::vector<ViewFamily> expected = ReferenceClusteredViewGen(
            table, kind.reference, cvg, {}, early, reference_rng, labels,
            evidence);
        for (size_t t = 0; t < pools.size(); ++t) {
          Rng production_rng(grid_seed);
          const std::vector<ViewFamily> actual =
              ClusteredViewGen(table, kind.models, cvg, {}, early,
                               production_rng, labels, evidence,
                               pools[t].get());
          const Status status = CompareFamilies(
              expected, actual,
              std::string(kind.name) + (early ? " Early" : " Late") +
                  " threads " + std::to_string(options.thread_counts[t]));
          if (!status.ok()) return fail(status);
        }
      }
    }
    // (3) An exact Naive Bayes tie between groups of different frequency
    // after a merge.
    if (i % 3 == 0) {
      const Status status = CheckMergedTie(rng);
      if (!status.ok()) {
        return fail(Status::Internal("merged tie, " + status.message()));
      }
    }
  }
  return Status::Ok();
}

}  // namespace csm::check
